// The load engine of compstor_bench: device stacks, the single-threaded
// closed loop that drives them, a watchdog that ends a stuck run, and the
// before/after readings the metrics are computed from.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/in_situ.hpp"
#include "isps/agent.hpp"
#include "ssd/ssd.hpp"

namespace compstor::cbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, in MB (10^6 bytes).
double PeakRssMb();

/// q-quantile of `v` (nearest rank); sorts `v`. 0 when empty.
double Quantile(std::vector<double>& v, double q);
/// Median of `v`; sorts `v`. 0 when empty.
inline double Median(std::vector<double>& v) { return Quantile(v, 0.5); }

struct Device;

/// Keeps a run live, or ends it instead of letting it hang.
///
/// Kicks: the NVMe back end can strand a command in its submission rings
/// with no doorbell signal left for it (about one kv_read run in ten at
/// 16 minions in flight per device). The arbiter then sleeps with the
/// command queued, and every minion on the device ends up waiting on it.
/// For each watched device, when commands are queued but the back end has
/// executed none for `kKickAfterS`, the watchdog submits a no-op Identify
/// command: its doorbell signal lets the arbiter pull the stranded command.
/// Each kick is counted and reported.
///
/// Ending: no Beat() or Phase() for `stall_s`, or the whole run past
/// `limit_s`. It prints the workload, the phase and the operations in flight
/// to stderr and exits with code 3.
class Watchdog {
 public:
  static constexpr double kKickAfterS = 0.5;

  Watchdog(std::string workload, double stall_s, double limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Phase(const std::string& phase);
  void Beat() { beats_.fetch_add(1, std::memory_order_relaxed); }
  void SetInFlight(std::uint64_t n) { in_flight_.store(n, std::memory_order_relaxed); }

  /// Watches `dev` for a stalled back end until Forget(dev).
  void Watch(Device* dev);
  void Forget(Device* dev);
  /// Kicks so far.
  std::uint64_t kicks() const { return kicks_.load(std::memory_order_relaxed); }

 private:
  struct Watched {
    Device* dev;
    std::uint64_t executed;   // back-end commands executed at `since`
    Clock::time_point since;  // last time the back end moved or was idle
  };

  void Loop();
  void KickStalled();  // requires mutex_

  const std::string workload_;
  const double stall_s_;
  const double limit_s_;
  const Clock::time_point start_ = Clock::now();
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::string phase_ = "start";
  std::vector<Watched> watched_;
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> kicks_{0};
  std::thread thread_;  // last: starts after the members it reads
};

/// Tracks the host's speed through a run. On a shared cloud host the
/// program under test is slowed in two ways it cannot cause, and every
/// wall-clock number moves with them:
///
/// - The cores change speed (up to ~30% apart from minute to minute on a
///   4-vCPU KVM guest). A thread times a fixed kernel every 50 ms by its own
///   CPU clock, which preemption does not stretch; the kernel runs out of
///   L1, so the workload's memory traffic does not slow it either, and it
///   reads the speed of the cores alone. CoreFactor(t0, t1) is the median
///   kernel time over [t0, t1] relative to kReferenceNs.
/// - The hypervisor runs other guests on our vCPUs: steal time, which took
///   up to 60% of the run's CPU time in some measured runs. With each kernel
///   sample the thread reads the guest's CPU accounting (/proc/stat), and
///   StealShare(t0, t1) is the stolen share of the time the vCPUs wanted to
///   run over [t0, t1]. 0 where /proc/stat cannot be read.
///
/// WallFactor = CoreFactor / (1 - StealShare). Wall-clock results are
/// reported at the reference speed by dividing times, and multiplying rates,
/// by it; CPU times, which steal does not stretch, by CoreFactor.
class SpeedProbe {
 public:
  /// Kernel CPU time in the fast state of a 4-vCPU Sapphire Rapids KVM guest.
  static constexpr double kReferenceNs = 275e3;

  SpeedProbe();
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  double CoreFactor(Clock::time_point t0, Clock::time_point t1);
  double StealShare(Clock::time_point t0, Clock::time_point t1);
  double WallFactor(Clock::time_point t0, Clock::time_point t1) {
    return CoreFactor(t0, t1) / (1.0 - StealShare(t0, t1));
  }

 private:
  struct Sample {
    Clock::time_point when;
    double kernel_ns;
    std::uint64_t busy_ticks;   // guest CPU time used, all CPUs
    std::uint64_t steal_ticks;  // guest CPU time stolen, all CPUs
  };

  void Loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // last: starts after the members it uses
};

/// An operation that finished on a device thread, handed to the main
/// thread. `check` runs there, so it may touch workload state without
/// locks; it returns true when the operation succeeded with correct output.
struct Finished {
  std::size_t device = 0;
  Clock::time_point submitted;
  Clock::time_point completed;
  std::function<bool()> check;
};

/// Completion queue from device threads to the main thread.
class Inbox {
 public:
  void Post(Finished f);
  /// Waits up to `timeout` for one completion.
  bool Wait(Finished* out, std::chrono::milliseconds timeout);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Finished> queue_;
};

/// One CompStor device: SSD, ISPS agent, and a client handle, with a
/// formatted filesystem, watched by a Watchdog for as long as it lives.
struct Device {
  ~Device();

  std::unique_ptr<ssd::Ssd> ssd;
  std::unique_ptr<isps::Agent> agent;
  std::unique_ptr<client::CompStorHandle> handle;
  Watchdog* watchdog = nullptr;
};
Result<std::unique_ptr<Device>> MakeDevice(std::uint64_t seed, Watchdog& watchdog);

/// Cumulative readings of one device, differenced around a phase.
struct DeviceReading {
  std::vector<double> core_clock_s;    // per ISPS core
  std::vector<double> worker_clock_s;  // per NVMe back-end worker
  double core_busy_s = 0;
  double energy_j = 0;  // every component of the device meter
  std::uint64_t link_bytes = 0;
  nvme::ControllerStats nvme;
  ftl::FtlStats ftl;
  flash::ArrayStats flash;
  fs::FsIntegrityCounts fs;   // the agent's (internal) filesystem view
  kv::StoreStats kv;          // every store open on the device
  std::uint64_t trace_spans = 0;   // spans recorded in the device ring
  std::uint64_t trace_dropped = 0;
  double channels = 0;    // flash channels
  double page_bytes = 0;  // bytes of one logical page
};
DeviceReading TakeReading(Device& dev);

/// What a phase did to a set of devices, on the modeled clock.
///
/// A device's modeled span is its cores' or its back-end workers' mean
/// clock advance, whichever is larger: the makespan with the work spread
/// evenly, as the model's least-loaded dispatch intends. Which OS thread
/// picks up which item decides how uneven the per-thread clocks end up
/// (ROADMAP item 2), and that moved host_io's max-over-workers makespan by
/// 8% between identical runs; the mean does not depend on it.
struct ModelDelta {
  double makespan_s = 0;  // max over devices of the modeled span
  double energy_j = 0;    // device meters + idle power over each span
  std::uint64_t link_bytes = 0;
};
ModelDelta Difference(const std::vector<DeviceReading>& before,
                      const std::vector<DeviceReading>& after);

/// Issues operations on device `device`; returns false when it has none to
/// issue. `draining` is set once the measured time is over: only operations
/// that finish work already started may be issued then.
using IssueFn = std::function<bool(std::size_t device, bool draining)>;

/// Span of one operation as the load generator saw it, in seconds from the
/// start of the phase.
struct OpSpan {
  std::uint32_t device = 0;
  float start_s = 0;
  float end_s = 0;
};

/// Outcome of one closed-loop phase.
struct LoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_s;  // submit -> completion, successful ops
  std::vector<double> done_s;     // completion time from the phase start, same ops
  double wall_s = 0;
  /// Traced phases only: spans of the operations that completed in traced
  /// slices, and the completion rate of traced and untraced slices.
  std::vector<OpSpan> spans;
  double traced_ops_s = 0;
  double untraced_ops_s = 0;
};

/// Drives `devices` devices from the calling thread with at most `window`
/// operations in flight on each, until `seconds` have passed (or `max_ops`
/// operations were issued, when nonzero) and the drain has finished.
/// `trace_slice_s` > 0 cuts the phase into slices of that length and records
/// an OpSpan for every operation completing in an odd slice, so traced and
/// untraced throughput are measured side by side in one phase.
LoopResult RunClosedLoop(Inbox& inbox, Watchdog& watchdog, std::size_t devices,
                         std::size_t window, double seconds, std::uint64_t max_ops,
                         const IssueFn& issue, double trace_slice_s = 0);

}  // namespace compstor::cbench
