#include "engine.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "isps/profile.hpp"
#include "ssd/profiles.hpp"

namespace compstor::cbench {

double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Watchdog::Watchdog(std::string workload, double stall_s, double limit_s)
    : workload_(std::move(workload)), stall_s_(stall_s), limit_s_(limit_s),
      thread_([this] { Loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Phase(const std::string& phase) {
  std::lock_guard<std::mutex> lock(mutex_);
  phase_ = phase;
  beats_.fetch_add(1, std::memory_order_relaxed);
}

void Watchdog::Watch(Device* dev) {
  std::lock_guard<std::mutex> lock(mutex_);
  watched_.push_back({dev, 0, Clock::now()});
}

void Watchdog::Forget(Device* dev) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(watched_, [dev](const Watched& w) { return w.dev == dev; });
}

void Watchdog::KickStalled() {
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < watched_.size(); ++i) {
    Watched& w = watched_[i];
    nvme::Controller& ctrl = w.dev->ssd->controller();
    const nvme::ControllerStats s = ctrl.Stats();
    const std::uint64_t executed = s.io_commands + s.vendor_commands + s.internal_commands;
    const std::size_t queued = ctrl.BacklogDepth();
    if (executed != w.executed || queued == 0) {
      w.executed = executed;
      w.since = now;
      continue;
    }
    if (SecondsSince(w.since) < kKickAfterS) continue;
    std::fprintf(stderr,
                 "compstor_bench: watchdog: device %zu executed no command for %.1f s with "
                 "%zu queued; kicking it with an Identify (phase %s)\n",
                 i, SecondsSince(w.since), queued, phase_.c_str());
    nvme::Command identify;
    identify.opcode = nvme::Opcode::kIdentify;
    w.dev->ssd->host_interface().SubmitAsync(std::move(identify), [](nvme::Completion) {});
    kicks_.fetch_add(1, std::memory_order_relaxed);
    w.since = now;
  }
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t last_beats = beats_.load(std::memory_order_relaxed);
  Clock::time_point last_progress = Clock::now();
  while (!cv_.wait_for(lock, std::chrono::milliseconds(100), [&] { return stop_; })) {
    KickStalled();
    const std::uint64_t beats = beats_.load(std::memory_order_relaxed);
    if (beats != last_beats) {
      last_beats = beats;
      last_progress = Clock::now();
    }
    const std::uint64_t in_flight = in_flight_.load(std::memory_order_relaxed);
    const double stalled = SecondsSince(last_progress);
    const double elapsed = SecondsSince(start_);
    const bool stuck = stalled > stall_s_;
    if (stuck || elapsed > limit_s_) {
      std::fprintf(stderr,
                   "compstor_bench: watchdog: workload=%s phase=%s in_flight=%llu "
                   "%s (%.1f s without progress, %.1f s elapsed)\n",
                   workload_.c_str(), phase_.c_str(),
                   static_cast<unsigned long long>(in_flight),
                   stuck ? "stalled" : "over the run time limit", stalled, elapsed);
      std::fflush(stderr);
      // Device threads may still hold the lost operations; nothing can be
      // torn down safely, so leave without running destructors.
      std::_Exit(3);
    }
  }
}

SpeedProbe::SpeedProbe() : thread_([this] { Loop(); }) {}

SpeedProbe::~SpeedProbe() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

namespace {

/// Guest CPU time used and stolen so far, all CPUs, in clock ticks; {0, 0}
/// when /proc/stat cannot be read.
std::pair<std::uint64_t, std::uint64_t> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
                     steal = 0;
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user, &nice,
                            &system, &idle, &iowait, &irq, &softirq, &steal);
  std::fclose(f);
  if (n != 8) return {0, 0};
  return {user + nice + system + irq + softirq, steal};
}

}  // namespace

void SpeedProbe::Loop() {
  auto thread_cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
  };
  // A branchy byte scan over 16 KiB of text: it stays in L1, so only the
  // core's own speed (clock, and what the host runs beside it) shows.
  std::vector<unsigned char> text(16 * 1024);
  std::uint64_t lcg = 12345;
  static constexpr char kWords[] = "the quick brown fox jumps over the lazy dog";
  for (unsigned char& c : text) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<unsigned char>(kWords[(lcg >> 33) % (sizeof(kWords) - 1)]);
  }
  std::uint64_t hash = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    const double t0 = thread_cpu_ns();
    for (int pass = 0; pass < 6; ++pass) {
      for (std::size_t i = 0; i + 2 < text.size(); ++i) {
        const unsigned char c = text[i];
        if (c == 't' && text[i + 1] == 'h') {
          hash += text[i + 2] == 'e';
        } else if (c == ' ') {
          hash = hash * 31 + text[i + 1];
        } else {
          hash ^= c;
        }
      }
    }
    // The hash feeds the sample so the scan cannot be optimized away.
    const double ns = thread_cpu_ns() - t0 + static_cast<double>(hash & 1) * 1e-9;
    const auto [busy, steal] = CpuTicks();
    lock.lock();
    samples_.push_back({Clock::now(), ns, busy, steal});
    cv_.wait_for(lock, std::chrono::milliseconds(50), [&] { return stop_; });
  }
}

double SpeedProbe::CoreFactor(Clock::time_point t0, Clock::time_point t1) {
  std::vector<double> ns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Sample& s : samples_) {
      if (s.when >= t0 && s.when <= t1) ns.push_back(s.kernel_ns);
    }
  }
  return ns.empty() ? 1.0 : Median(ns) / kReferenceNs;
}

double SpeedProbe::StealShare(Clock::time_point t0, Clock::time_point t1) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Sample* first = nullptr;
  const Sample* last = nullptr;
  for (const Sample& s : samples_) {
    if (s.when < t0 || s.when > t1) continue;
    if (first == nullptr) first = &s;
    last = &s;
  }
  if (first == nullptr) return 0;
  const double busy = static_cast<double>(last->busy_ticks - first->busy_ticks);
  const double steal = static_cast<double>(last->steal_ticks - first->steal_ticks);
  // Capped so a run stolen almost whole still reports a finite number.
  return busy + steal > 0 ? std::min(0.9, steal / (busy + steal)) : 0;
}

void Inbox::Post(Finished f) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(f));
  }
  cv_.notify_one();
}

bool Inbox::Wait(Finished* out, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!cv_.wait_for(lock, timeout, [&] { return !queue_.empty(); })) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

Device::~Device() {
  if (watchdog != nullptr) watchdog->Forget(this);
}

Result<std::unique_ptr<Device>> MakeDevice(std::uint64_t seed, Watchdog& watchdog) {
  // 0.0015 of the full 24 TB geometry: ~11 GiB raw, the scale the figure
  // benches use. Far above every working set here, so FTL GC never runs.
  constexpr double kCapacityScale = 0.0015;
  auto dev = std::make_unique<Device>();
  dev->ssd = std::make_unique<ssd::Ssd>(ssd::CompStorProfile(kCapacityScale), seed);
  dev->watchdog = &watchdog;
  watchdog.Watch(dev.get());
  dev->handle = std::make_unique<client::CompStorHandle>(dev->ssd.get());
  COMPSTOR_RETURN_IF_ERROR(dev->handle->FormatFilesystem());
  dev->agent = std::make_unique<isps::Agent>(dev->ssd.get());
  return dev;
}

DeviceReading TakeReading(Device& dev) {
  DeviceReading r;
  isps::CoreEmulator& cores = dev.agent->cores();
  for (std::uint32_t c = 0; c < cores.core_count(); ++c) {
    r.core_clock_s.push_back(cores.CoreTime(c));
  }
  nvme::Controller& ctrl = dev.ssd->controller();
  for (std::size_t w = 0; w < ctrl.backend_worker_count(); ++w) {
    r.worker_clock_s.push_back(ctrl.WorkerTime(w));
  }
  r.core_busy_s = cores.TotalBusySeconds();
  r.energy_j = dev.ssd->meter().TotalJoules();
  r.link_bytes = dev.ssd->link().TotalBytes();
  r.nvme = ctrl.Stats();
  r.ftl = dev.ssd->ftl().Stats();
  r.flash = dev.ssd->array().Stats();
  r.fs = dev.agent->filesystem().IntegrityCounts();
  r.kv = dev.agent->runtime().kv_stores().AggregateStats();
  r.trace_dropped = dev.ssd->trace().dropped();
  r.trace_spans = dev.ssd->trace().Events().size() + r.trace_dropped;
  r.channels = dev.ssd->array().channel_count();
  r.page_bytes = dev.ssd->ftl().page_data_bytes();
  return r;
}

ModelDelta Difference(const std::vector<DeviceReading>& before,
                      const std::vector<DeviceReading>& after) {
  auto mean_advance = [](const std::vector<double>& b, const std::vector<double>& a) {
    double sum = 0;
    for (std::size_t i = 0; i < b.size(); ++i) sum += a[i] - b[i];
    return b.empty() ? 0.0 : sum / static_cast<double>(b.size());
  };
  ModelDelta d;
  const double idle_w = isps::IspsCpuProfile().package_idle_watts;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const double span =
        std::max(mean_advance(before[i].core_clock_s, after[i].core_clock_s),
                 mean_advance(before[i].worker_clock_s, after[i].worker_clock_s));
    d.makespan_s = std::max(d.makespan_s, span);
    // Each device idles at package power for its own busy span; the active
    // CPU, DRAM, link, flash and controller joules are on its meter.
    d.energy_j += after[i].energy_j - before[i].energy_j + idle_w * span;
    d.link_bytes += after[i].link_bytes - before[i].link_bytes;
  }
  return d;
}

LoopResult RunClosedLoop(Inbox& inbox, Watchdog& watchdog, std::size_t devices,
                         std::size_t window, double seconds, std::uint64_t max_ops,
                         const IssueFn& issue, double trace_slice_s) {
  LoopResult out;
  std::vector<std::uint64_t> per_slice;  // completions per trace slice
  std::vector<std::size_t> in_flight(devices, 0);
  std::size_t total_in_flight = 0;
  const Clock::time_point t0 = Clock::now();
  bool draining = false;
  for (;;) {
    if (!draining) {
      draining = (seconds > 0 && SecondsSince(t0) >= seconds) ||
                 (max_ops > 0 && out.attempted >= max_ops);
    }
    for (std::size_t d = 0; d < devices; ++d) {
      while (in_flight[d] < window &&
             (draining || max_ops == 0 || out.attempted < max_ops) &&
             issue(d, draining)) {
        ++in_flight[d];
        ++total_in_flight;
        ++out.attempted;
      }
    }
    watchdog.SetInFlight(total_in_flight);
    if (total_in_flight == 0) {
      if (draining) break;
      draining = true;  // nothing left to issue before the time is up
      continue;
    }
    Finished f;
    if (!inbox.Wait(&f, std::chrono::milliseconds(500))) continue;
    --in_flight[f.device];
    --total_in_flight;
    watchdog.Beat();
    if (!f.check()) {
      ++out.failed;
      continue;
    }
    const double end = std::chrono::duration<double>(f.completed - t0).count();
    out.latency_s.push_back(std::chrono::duration<double>(f.completed - f.submitted).count());
    out.done_s.push_back(end);
    if (trace_slice_s > 0) {
      const auto slice = static_cast<std::size_t>(end / trace_slice_s);
      if (slice >= per_slice.size()) per_slice.resize(slice + 1, 0);
      ++per_slice[slice];
      if (slice % 2 == 1) {
        const double start = std::chrono::duration<double>(f.submitted - t0).count();
        out.spans.push_back({static_cast<std::uint32_t>(f.device), static_cast<float>(start),
                             static_cast<float>(end)});
      }
    }
  }
  out.wall_s = SecondsSince(t0);
  // Only slices wholly inside the measured time count toward the rates.
  const auto full = trace_slice_s > 0 ? static_cast<std::size_t>(seconds / trace_slice_s) : 0;
  if (full >= 2) {
    double traced = 0, untraced = 0;
    for (std::size_t i = 0; i < std::min(full, per_slice.size()); ++i) {
      (i % 2 == 1 ? traced : untraced) += static_cast<double>(per_slice[i]);
    }
    out.traced_ops_s = traced / (static_cast<double>(full / 2) * trace_slice_s);
    out.untraced_ops_s = untraced / (static_cast<double>((full + 1) / 2) * trace_slice_s);
  }
  return out;
}

}  // namespace compstor::cbench
