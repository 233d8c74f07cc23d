// compstor_bench: one workload through the whole CompStor stack, measured
// end to end on both clocks (wall and modeled) and, in a traced run, layer
// by layer.
//
//   compstor_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--scale full|smoke] [--json PATH]
//
// A run builds its inputs from the seed, sets the devices up, drives them
// closed-loop from this one thread for --seconds, checks every output, and
// sets up twice more (set-up time is the median of three). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics in an untraced run and the per-layer ones in a
// traced run. --json also writes the full report, both metric groups
// included.
// Exit status: 0 when every output was correct, 1 when one was wrong or an
// operation failed, 2 on bad arguments, 3 when the watchdog ended the run.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

#ifndef COMPSTOR_GIT_DESCRIBE
#define COMPSTOR_GIT_DESCRIBE "unknown"
#endif
#ifndef COMPSTOR_BUILD_TYPE
#define COMPSTOR_BUILD_TYPE "unknown"
#endif

namespace {

using namespace compstor;
using namespace compstor::cbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds one JSON object, member by member.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) { return Raw(key, Number(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string NumberList(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : ", ") + Number(v);
  return "[" + out + "]";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    out.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  return out.str();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The per-layer counters: before/after deltas of the stats every layer
/// already exports, summed over devices, per successful operation.
std::vector<Metric> LayerCounters(const std::vector<DeviceReading>& before,
                                  const std::vector<DeviceReading>& after,
                                  const ModelDelta& model, double ops, double puts) {
  double nvme_cmds = 0, nvme_internal = 0, core_busy = 0, cores = 0, journal = 0, cksum = 0;
  double kv_hits = 0, kv_misses = 0, compactions = 0, host_writes = 0, host_reads = 0;
  double programs = 0, flash_reads = 0, cache_read_hits = 0, contended = 0, channel_busy = 0;
  double channels = 0, spans = 0, dropped = 0, page_bytes = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const DeviceReading& b = before[i];
    const DeviceReading& a = after[i];
    auto d = [](auto x, auto y) { return static_cast<double>(x) - static_cast<double>(y); };
    nvme_cmds += d(a.nvme.io_commands + a.nvme.vendor_commands,
                   b.nvme.io_commands + b.nvme.vendor_commands);
    nvme_internal += d(a.nvme.internal_commands, b.nvme.internal_commands);
    core_busy += a.core_busy_s - b.core_busy_s;
    cores += static_cast<double>(a.core_clock_s.size());
    journal += d(a.fs.journal_commits, b.fs.journal_commits);
    cksum += d(a.fs.cksum_checks, b.fs.cksum_checks);
    kv_hits += d(a.kv.cache_hits, b.kv.cache_hits);
    kv_misses += d(a.kv.cache_misses, b.kv.cache_misses);
    compactions += d(a.kv.compactions, b.kv.compactions);
    host_writes += d(a.ftl.host_page_writes, b.ftl.host_page_writes);
    host_reads += d(a.ftl.host_page_reads, b.ftl.host_page_reads);
    programs += d(a.ftl.flash_programs, b.ftl.flash_programs);
    flash_reads += d(a.flash.reads, b.flash.reads);
    cache_read_hits += d(a.ftl.cache_read_hits, b.ftl.cache_read_hits);
    contended += d(a.ftl.shard_lock_contended + a.ftl.die_lock_contended +
                       a.ftl.maintenance_lock_contended,
                   b.ftl.shard_lock_contended + b.ftl.die_lock_contended +
                       b.ftl.maintenance_lock_contended);
    channel_busy += a.flash.channel_busy_total - b.flash.channel_busy_total;
    channels += a.channels;
    spans += d(a.trace_spans, b.trace_spans);
    dropped += d(a.trace_dropped, b.trace_dropped);
    page_bytes = a.page_bytes;
  }
  return {
      {"nvme.commands_per_op", Ratio(nvme_cmds, ops), "count"},
      {"nvme.internal_commands_per_op", Ratio(nvme_internal, ops), "count"},
      {"isps.core_util", Ratio(core_busy, cores * model.makespan_s), "ratio"},
      {"fs.journal_commits_per_op", Ratio(journal, ops), "count"},
      {"fs.cksum_checks_per_op", Ratio(cksum, ops), "count"},
      {"kv.cache_hit_ratio", Ratio(kv_hits, kv_hits + kv_misses), "ratio"},
      {"kv.bytes_written_per_put", Ratio(host_writes * page_bytes, puts), "B"},
      {"kv.compactions", compactions, "count"},
      {"ftl.write_amp", Ratio(programs, host_writes), "ratio"},
      {"ftl.cache_read_hit_ratio", Ratio(cache_read_hits, host_reads), "ratio"},
      {"ftl.lock_contended_per_kpage", Ratio(contended, (host_reads + host_writes) / 1000), "count"},
      {"flash.reads_per_op", Ratio(flash_reads, ops), "count"},
      {"flash.programs_per_op", Ratio(programs, ops), "count"},
      {"flash.channel_util", Ratio(channel_busy, channels * model.makespan_s), "ratio"},
      {"telemetry.spans_per_op", Ratio(spans, ops), "count"},
      {"telemetry.dropped_spans", dropped, "count"},
  };
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "compstor_bench: %s\nusage: compstor_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale full|smoke] [--json PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "smoke") return Usage("--scale takes full or smoke");
      opt.smoke = v == "smoke";
    } else if (a == "--json") {
      opt.json_path = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty()) return Usage("--workload is required");

  // Bounds every wait of the run: 30 s without a completion while work is
  // in flight, or 170 s in all, ends it with a diagnosis.
  Watchdog watchdog(opt.workload, 30, 170);
  SpeedProbe probe;
  watchdog.Phase("inputs");
  const Clock::time_point t_inputs = Clock::now();
  auto made = MakeWorkload(opt.workload, opt.seed, opt.smoke);
  if (!made.ok()) return Usage(made.status().ToString().c_str());
  std::unique_ptr<Workload> wl = std::move(*made);
  const double inputs_s = SecondsSince(t_inputs);

  // Set-up runs three times and setup_s is the median. The measured devices
  // come from the first one, and the other two run after the measurement.
  // Memory is the peak through the first set-up: the flash model allocates
  // a whole block per die at a time, so later footprint steps by ~150 MB per
  // device whenever the pages a run writes cross a block boundary, and a
  // time-bounded run crosses one or not depending on its speed.
  const int setups = opt.smoke ? 1 : 3;
  std::vector<double> setup_times, setup_raw;
  auto set_up = [&]() -> bool {
    watchdog.Phase("setup");
    const Clock::time_point t0 = Clock::now();
    Status st = wl->SetUp(watchdog);
    if (!st.ok()) {
      std::fprintf(stderr, "compstor_bench: %s set-up failed: %s\n", opt.workload.c_str(),
                   st.ToString().c_str());
      return false;
    }
    setup_raw.push_back(SecondsSince(t0));
    setup_times.push_back(setup_raw.back() / probe.WallFactor(t0, Clock::now()));
    return true;
  };
  if (!set_up()) return 1;
  const double setup_rss_mb = PeakRssMb();

  // Measured phase.
  watchdog.Phase("measure");
  std::vector<DeviceReading> before, after;
  for (auto& dev : wl->devices()) before.push_back(TakeReading(*dev));
  const std::uint64_t bytes0 = wl->input_bytes();
  const std::uint64_t puts0 = wl->puts();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t_measure = Clock::now();
  LoopResult run = RunClosedLoop(
      wl->inbox(), watchdog, wl->devices().size(), wl->window(), opt.seconds, 0,
      [&](std::size_t d, bool draining) { return wl->Issue(d, draining); },
      opt.trace ? 0.1 : 0.0);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const Clock::time_point t_measured = Clock::now();
  const double core_speed = probe.CoreFactor(t_measure, t_measured);
  const double steal = probe.StealShare(t_measure, t_measured);
  const double speed = probe.WallFactor(t_measure, t_measured);
  for (auto& dev : wl->devices()) after.push_back(TakeReading(*dev));
  const double input_mb = static_cast<double>(wl->input_bytes() - bytes0) / 1e6;

  watchdog.Phase("check");
  const std::uint64_t wrong = wl->FinalCheck();
  const std::uint64_t attempted = run.attempted;
  const std::uint64_t failed = run.failed + wrong;
  const bool correct = failed == 0 && attempted > 0;
  const double ops = static_cast<double>(run.attempted - run.failed);
  const ModelDelta model = Difference(before, after);

  std::vector<double> lat_ms;
  for (double s : run.latency_s) lat_ms.push_back(s * 1e3);
  // Results as measured; the end-to-end metrics carry them at the reference
  // host speed: wall times and rates by the wall factor, CPU time by the core
  // factor (see SpeedProbe). The tail percentiles stay in the report only:
  // they rest on scheduling stalls and bursts of steal time that the wall
  // factor does not undo, and do not repeat.
  const std::vector<Metric> raw = {
      {"wall_ops_s", Ratio(ops, run.wall_s), "1/s"},
      {"lat_p50_ms", Quantile(lat_ms, 0.50), "ms"},
      {"lat_p95_ms", Quantile(lat_ms, 0.95), "ms"},
      {"lat_p99_ms", Quantile(lat_ms, 0.99), "ms"},
      {"cpu_us_per_op", Ratio(cpu_s * 1e6, ops), "us"},
  };
  std::vector<Metric> layers =
      LayerCounters(before, after, model, ops, static_cast<double>(wl->puts() - puts0));
  LadderResult ladder;
  if (opt.trace) {
    layers.push_back({"trace.overhead_pct",
                      100.0 * (1.0 - Ratio(run.traced_ops_s, run.untraced_ops_s)), "%"});
    watchdog.Phase("ladder");
    const std::size_t n = opt.smoke ? 4 : wl->ladder_items();
    auto sample = wl->LadderSample(n);
    auto result = sample.ok() ? RunLadder(*wl->devices()[0], *sample, watchdog)
                              : Result<LadderResult>(sample.status());
    if (!result.ok()) {
      std::fprintf(stderr, "compstor_bench: %s ladder failed: %s\n", opt.workload.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    ladder = std::move(*result);
    for (const auto& [name, us] : ladder.self_us) layers.push_back({name, us, "us"});
  }

  for (int r = 1; r < setups; ++r) {
    if (!set_up()) return 1;
  }
  std::vector<double> sorted_setups = setup_times;
  const double setup_s = Median(sorted_setups);
  const std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {raw[0].name, raw[0].value * speed, raw[0].unit},
      {raw[1].name, raw[1].value / speed, raw[1].unit},
      {raw[4].name, raw[4].value / core_speed, raw[4].unit},
      {"setup_rss_mb", setup_rss_mb, "MB"},
      {"model_ops_s", Ratio(ops, model.makespan_s), "1/s"},
      {"model_uj_per_op", Ratio(model.energy_j * 1e6, ops), "uJ"},
      {"link_bytes_per_op", Ratio(static_cast<double>(model.link_bytes), ops), "B"},
  };

  watchdog.Phase("teardown");
  wl.reset();

  // Human-readable table, then the report file, then the result line.
  std::printf("compstor_bench %s seed=%" PRIu64 " seconds=%g trace=%d scale=%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              opt.smoke ? "smoke" : "full");
  std::printf("  inputs %.3f s, set-up %d x (median %.3f s), measured %.3f s, "
              "%" PRIu64 " ops, %" PRIu64 " failed, %zu latency samples, %.1f input MB, "
              "core speed factor %.3f, steal share %.3f, %" PRIu64 " watchdog kicks\n",
              inputs_s, setups, setup_s, run.wall_s, attempted, failed, run.latency_s.size(),
              input_mb, core_speed, steal, watchdog.kicks());
  for (const std::vector<Metric>* group : {&e2e, &std::as_const(layers)}) {
    for (const Metric& m : *group) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  if (!opt.json_path.empty()) {
    // Completions per 250 ms of the measured phase, to see drift and stalls.
    std::vector<double> per_quarter(static_cast<std::size_t>(opt.seconds * 4) + 1, 0);
    for (double t : run.done_s) {
      if (t * 4 < static_cast<double>(per_quarter.size())) ++per_quarter[static_cast<std::size_t>(t * 4)];
    }
    JsonObject spans;
    for (const auto& [name, us] : ladder.span_us) spans.Num(name, us);
    const std::string report =
        JsonObject()
            .Str("schema", "compstor_bench/1")
            .Str("workload", opt.workload)
            .Num("seed", static_cast<double>(opt.seed))
            .Num("seconds", opt.seconds)
            .Num("trace", opt.trace ? 1 : 0)
            .Str("scale", opt.smoke ? "smoke" : "full")
            .Raw("provenance", JsonObject()
                                   .Str("git", COMPSTOR_GIT_DESCRIBE)
                                   .Num("nproc", std::thread::hardware_concurrency())
                                   .Str("compiler", "gcc " __VERSION__)
                                   .Str("build_type", COMPSTOR_BUILD_TYPE)
                                   .str())
            .Raw("samples", JsonObject()
                                .Num("setups", setups)
                                .Num("attempted", static_cast<double>(attempted))
                                .Num("latency", static_cast<double>(run.latency_s.size()))
                                .Num("ladder_items", static_cast<double>(ladder.items))
                                .Num("traced_spans", static_cast<double>(run.spans.size()))
                                .str())
            .Raw("correct", correct ? "true" : "false")
            .Num("attempted", static_cast<double>(attempted))
            .Num("failed", static_cast<double>(failed))
            .Raw("end_to_end", MetricsJson(e2e))
            .Raw("per_layer", MetricsJson(layers))
            .Raw("extra", JsonObject()
                              .Num("fail_frac", Ratio(static_cast<double>(failed),
                                                      static_cast<double>(attempted)))
                              .Num("wall_mb_s", Ratio(input_mb, run.wall_s) * speed)
                              .Num("model_mb_s", Ratio(input_mb, model.makespan_s))
                              .Num("model_makespan_s", model.makespan_s)
                              .Num("model_energy_j", model.energy_j)
                              .Num("core_speed_factor", core_speed)
                              .Num("steal_share", steal)
                              .Num("watchdog_kicks", static_cast<double>(watchdog.kicks()))
                              .Num("lat_p95_ms", raw[2].value / speed)
                              .Num("lat_p99_ms", raw[3].value / speed)
                              .Raw("as_measured", MetricsJson(raw))
                              .Raw("setup_s_each", NumberList(setup_times))
                              .Raw("setup_s_each_as_measured", NumberList(setup_raw))
                              .Num("inputs_s", inputs_s)
                              .Raw("completions_per_250ms", NumberList(per_quarter))
                              .Raw("ladder_span_us", spans.str())
                              .str())
            .str();
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr || std::fprintf(f, "%s\n", report.c_str()) < 0 || std::fclose(f) != 0) {
      std::fprintf(stderr, "compstor_bench: cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(opt.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
