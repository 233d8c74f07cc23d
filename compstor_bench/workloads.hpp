// The five compstor_bench workloads. Each one owns its devices, makes its
// inputs from the seed, issues its operations into the closed loop, and
// checks every output it gets back.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine.hpp"
#include "proto/entities.hpp"

namespace compstor::cbench {

/// One input the ladder replays layer by layer (see ladder.hpp).
struct LadderItem {
  /// File on device 0 holding the item's bytes. For scan and compress it is
  /// the workload's own input file; kv_* and host_io write their values and
  /// blocks out as files, so the fs and flash layers see the same bytes.
  std::string file;
  /// The workload's own minion for this item. host_io has no minion of its
  /// own; it counts the bytes of `file` with `wc -c` in-storage.
  proto::Command command;
  /// True when `command` reads `file`.
  bool command_reads_file = false;
  /// Key and value probed in device 0's store at /kv (created there for the
  /// workloads that have no store).
  std::string key;
  std::string value;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds fresh devices and stages or loads the inputs, warm-up included.
  /// Every call replaces the devices of the previous one, so set-up can be
  /// timed several times in one run.
  virtual Status SetUp(Watchdog& watchdog) = 0;

  std::vector<std::unique_ptr<Device>>& devices() { return devices_; }
  /// Operations in flight per device during the measured phase.
  virtual std::size_t window() const = 0;
  /// Issues one operation on `device` (see IssueFn).
  virtual bool Issue(std::size_t device, bool draining) = 0;
  /// Input bytes the completed operations processed, summed so far.
  std::uint64_t input_bytes() const { return input_bytes_; }
  /// Completed kv updates so far.
  std::uint64_t puts() const { return puts_; }
  /// Checks of the final device state after the measured phase; returns
  /// the number of wrong outputs found.
  virtual std::uint64_t FinalCheck() = 0;
  /// A seeded sample of `n` items for the ladder, on device 0.
  virtual Result<std::vector<LadderItem>> LadderSample(std::size_t n) = 0;
  /// Ladder sample size: 64 files, or 256 small operations.
  virtual std::size_t ladder_items() const = 0;

  Inbox& inbox() { return inbox_; }

 protected:
  Inbox inbox_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::uint64_t input_bytes_ = 0;
  std::uint64_t puts_ = 0;
};

/// `smoke` shrinks every input so a run takes well under a second.
Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               std::uint64_t seed, bool smoke);

}  // namespace compstor::cbench
