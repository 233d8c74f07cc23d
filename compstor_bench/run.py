#!/usr/bin/env python3
"""Builds and runs compstor_bench; compares sets of its reports.

Run one workload (builds first, into .bench_build at the repository root):

    python3 compstor_bench/run.py --workload scan --seed 1 --seconds 8 \
        --trace 0 [--json scan.1.json]

Every argument is passed on to the compstor_bench binary; the last line of
its standard output is the result object. Build output goes to stderr.

Compare two sets of --json reports, per workload and metric:

    python3 compstor_bench/run.py --compare A1.json A2.json -- B1.json B2.json

Run every workload at smoke scale and check each result (the bench_smoke
test does this):

    python3 compstor_bench/run.py --smoke [--bin path/to/compstor_bench]
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "compstor_bench")
# The binary's own watchdog ends a run at 170 s; this is the backstop.
RUN_TIMEOUT_S = 178
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (until it succeeds once) and builds the bench; returns
    False on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {' '.join(cmd)} failed: {e}")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            log(f"build step {' '.join(cmd)} exited {done.returncode}")
            return False
    return True


def run_binary(binary, args, capture=False):
    """Runs the bench; returns (exit code, stdout text or None)."""
    try:
        done = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"compstor_bench {' '.join(args)} did not finish in {RUN_TIMEOUT_S} s")
        return 3, None
    return done.returncode, done.stdout.decode() if capture else None


def declared():
    """The benchmark's declaration: BENCHMARK.json at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- compare ----------------------------------------------------------------

def summary(values):
    """(median, q1, q3) of a list, quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def load_reports(paths):
    by_workload = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        by_workload.setdefault(report["workload"], []).append(report)
    return by_workload


def compare(a_paths, b_paths):
    spec = declared()
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    a, b = load_reports(a_paths), load_reports(b_paths)
    regressed = False
    for workload in [w for w in a if w in b]:
        ra, rb = a[workload], b[workload]
        print(f"\n== {workload}: {len(ra)} runs (A) vs {len(rb)} runs (B)")
        print(f"  {'metric':<20} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}"
              f" {'delta':>8} {'bound':>6}  verdict")
        for m in e2e:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["end_to_end"][name]["value"] for r in ra if name in r["end_to_end"]]
            vb = [r["end_to_end"][name]["value"] for r in rb if name in r["end_to_end"]]
            if not va or not vb:
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(va), summary(vb)
            delta = (mb - ma) / ma if ma else 0.0
            worse = delta if lower else -delta
            spread = max((a3 - a1) / ma if ma else 0.0, (b3 - b1) / mb if mb else 0.0)
            b_always_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if spread > bound and not b_always_better:
                verdict = "unresolved (spread %.1f%%)" % (100 * spread)
            elif worse > bound:
                verdict = "REGRESSED"
                regressed = True
            else:
                verdict = "ok"
            unit = ra[0]["end_to_end"][name]["unit"]
            print(f"  {name:<20} {ma:>12.5g} [{a1:.5g}, {a3:.5g}] {unit:<4}"
                  f" {mb:>12.5g} [{b1:.5g}, {b3:.5g}] {unit:<4}"
                  f" {100 * delta:>+7.1f}% {100 * bound:>5.0f}%  {verdict}")
        moved = []
        for m in per_layer:
            name = m["name"]
            va = [r["per_layer"][name]["value"] for r in ra if name in r.get("per_layer", {})]
            vb = [r["per_layer"][name]["value"] for r in rb if name in r.get("per_layer", {})]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            scale = max(abs(ma), abs(mb))
            if scale > 0:
                moved.append((abs(mb - ma) / scale, name, ma, mb))
        moved.sort(reverse=True)
        if moved:
            print("  per-layer metrics that moved most:")
            for change, name, ma, mb in moved[:5]:
                print(f"    {name:<32} {ma:>12.5g} -> {mb:<12.5g} ({100 * change:.1f}% of the larger)")
    return 1 if regressed else 0


# --- smoke --------------------------------------------------------------------

def smoke(binary):
    """One traced run of every workload at smoke scale: exit 0, correct
    outputs, and every declared metric, end-to-end and per-layer, present
    and finite in the report."""
    spec = declared()
    start = time.monotonic()
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        report_path = os.path.join(os.path.dirname(os.path.abspath(binary)), f"smoke_{workload}.json")
        args = ["--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", "1",
                "--scale", "smoke", "--json", report_path]
        code, out = run_binary(binary, args, capture=True)
        problems = [] if code == 0 else [f"exit {code}"]
        try:
            result = json.loads(out.strip().splitlines()[-1])
            with open(report_path) as f:
                report = json.load(f)
        except (AttributeError, IndexError, ValueError, OSError):
            result = report = None
            problems.append("no result line or report")
        if result is not None:
            if result.get("correct") is not True:
                problems.append("outputs not correct")
            for group, metrics in (("end_to_end", spec["end_to_end"]),
                                   ("per_layer", spec["per_layer"])):
                for m in metrics:
                    v = report[group].get(m["name"], {}).get("value")
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append(f"{group} metric {m['name']} missing or not finite")
            if set(result["metrics"]) != {m["name"] for m in spec["per_layer"]}:
                problems.append("traced result line does not hold exactly the per-layer metrics")
        print(f"smoke {workload}: {'; '.join(problems) or 'ok'}")
        bad += bool(problems)
    print(f"smoke: {time.monotonic() - start:.1f} s")
    return 1 if bad else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if "--" not in argv:
            log("usage: run.py --compare A.json... -- B.json...")
            return 2
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:])
    if argv[:1] == ["--smoke"]:
        if argv[1:2] == ["--bin"] and len(argv) > 2:
            return smoke(argv[2])
        return smoke(BINARY) if build() else 1
    if not build():
        return 1
    code, _ = run_binary(BINARY, argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
