#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string_view>

#include "kv/types.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"
#include "workload/zipf.hpp"

namespace compstor::cbench {
namespace {

/// Independent stream seed for purpose `tag` of run seed `seed`.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (tag + 1) * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Prints the first few wrong outputs of a run; later ones only count.
bool Wrong(const std::string& what) {
  static int shown = 0;
  if (shown++ < 8) std::fprintf(stderr, "compstor_bench: wrong output: %s\n", what.c_str());
  return false;
}

/// Replaces `devices` with `n` freshly built ones (old ones go first, so
/// repeated set-ups do not hold two fleets in memory).
Status MakeDevices(std::size_t n, std::uint64_t seed, Watchdog& watchdog,
                   std::vector<std::unique_ptr<Device>>* devices) {
  devices->clear();
  for (std::size_t d = 0; d < n; ++d) {
    COMPSTOR_ASSIGN_OR_RETURN(std::unique_ptr<Device> dev,
                              MakeDevice(SubSeed(seed, 100 + d), watchdog));
    devices->push_back(std::move(dev));
  }
  return OkStatus();
}

proto::Command AppCommand(std::string app, std::vector<std::string> args,
                          const std::string& input) {
  proto::Command cmd;
  cmd.type = proto::CommandType::kExecutable;
  cmd.executable = std::move(app);
  cmd.args = std::move(args);
  cmd.input_files = {input};
  return cmd;
}

kv::Op KvOp(kv::OpType type, std::string key, std::string value = "") {
  kv::Op op;
  op.type = type;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

/// A "kv" minion carrying `ops` as a structured batch.
proto::Command KvCommand(std::vector<kv::Op> ops) {
  proto::Command cmd;
  cmd.type = proto::CommandType::kExecutable;
  cmd.executable = "kv";
  cmd.kv_request.ops = std::move(ops);
  return cmd;
}

/// Sends a minion on device `d`. Its completion reaches the main thread as a
/// Finished whose check runs `check` on a delivered, successful response.
void PostMinion(Inbox& inbox, Device& dev, std::size_t d, proto::Command cmd,
                std::function<bool(const proto::Minion&)> check) {
  const Clock::time_point t0 = Clock::now();
  std::string what = cmd.executable;
  const bool sent = dev.handle->SendMinionAsync(
      std::move(cmd), [&inbox, d, t0, what, check](Result<proto::Minion> r) {
        const Clock::time_point t1 = Clock::now();
        auto minion = std::make_shared<Result<proto::Minion>>(std::move(r));
        inbox.Post({d, t0, t1, [minion, what, check] {
                      if (!minion->ok()) return Wrong(what + ": " + minion->status().ToString());
                      const proto::Response& resp = (*minion)->response;
                      if (!resp.ok() || resp.exit_code != 0) {
                        return Wrong(what + ": status " + resp.status_message + " exit " +
                                     std::to_string(resp.exit_code) + " " + resp.stderr_data);
                      }
                      return check(**minion);
                    }});
      });
  if (!sent) inbox.Post({d, t0, Clock::now(), [what] { return Wrong(what + ": rejected"); }});
}

/// Submits one host NVMe IO on `dev` (the plain-SSD path).
void PostIo(Inbox& inbox, Device& dev, std::size_t d, nvme::Opcode op, std::uint64_t slba,
            std::uint32_t nlb, std::shared_ptr<std::vector<std::uint8_t>> data,
            std::function<bool()> check) {
  nvme::Command cmd;
  cmd.opcode = op;
  cmd.slba = slba;
  cmd.nlb = nlb;
  cmd.data = std::move(data);
  const Clock::time_point t0 = Clock::now();
  const bool sent = dev.ssd->host_interface().SubmitAsync(
      std::move(cmd), [&inbox, d, t0, check](nvme::Completion cqe) {
        const Clock::time_point t1 = Clock::now();
        const bool ok = cqe.status.ok();
        std::string err = ok ? "" : cqe.status.ToString();
        inbox.Post({d, t0, t1, [ok, err, check] { return ok ? check() : Wrong("io: " + err); }});
      });
  if (!sent) inbox.Post({d, t0, Clock::now(), [] { return Wrong("io: rejected"); }});
}

/// Single-writer version bookkeeping for the read-your-writes checks of the
/// kv and host_io workloads. A read submitted when version `lo` of an item
/// was acknowledged must return a version in [lo, highest issued]: the last
/// acknowledged one or one still in flight. At most one write per item is
/// in flight, so writes of one item apply in issue order.
class Versions {
 public:
  explicit Versions(std::size_t items) : acked_(items, 0), issued_(items, 0), writing_(items, 0) {}

  /// Item to write next at or after `item`, skipping items with a write in
  /// flight; returns its new version through `version`.
  std::size_t BeginWrite(std::size_t item, std::uint64_t* version) {
    while (writing_[item] != 0) item = (item + 1) % acked_.size();
    writing_[item] = 1;
    *version = ++issued_[item];
    return item;
  }
  void EndWrite(std::size_t item, std::uint64_t version, bool ok) {
    writing_[item] = 0;
    if (ok) acked_[item] = std::max(acked_[item], version);
  }
  std::uint64_t acked(std::size_t item) const { return acked_[item]; }
  bool Plausible(std::size_t item, std::uint64_t lo, std::uint64_t got) const {
    return got >= lo && got <= issued_[item];
  }

 private:
  std::vector<std::uint64_t> acked_;
  std::vector<std::uint64_t> issued_;
  std::vector<std::uint8_t> writing_;
};

/// Deterministic filler for values and blocks: bytes from a stream keyed by
/// (item, version), printable so they also serve as text.
void Fill(std::uint64_t item, std::uint64_t version, char* out, std::size_t n) {
  util::Xoshiro256 rng(SubSeed(item, version));
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t r = rng.Next();
    for (std::size_t j = i; j < std::min(n, i + 8); ++j, r >>= 8) {
      out[j] = kAlphabet[(r & 0xFF) % 36];
    }
  }
}

// ---------------------------------------------------------------------------
// scan and compress: in-storage tools over staged book text

constexpr std::size_t kTextDevices = 2;

/// One device's share of the corpus: synthetic books of one size.
struct Corpus {
  std::vector<std::string> paths;
  std::vector<std::string> contents;
};

Result<Corpus> MakeCorpus(std::uint64_t seed, std::uint32_t files, std::uint64_t file_bytes) {
  workload::DatasetSpec spec;
  spec.num_files = files;
  spec.total_bytes = files * file_bytes;
  spec.seed = seed;
  spec.uniform_sizes = true;
  spec.directory = "/data";
  Corpus c;
  COMPSTOR_ASSIGN_OR_RETURN(workload::Dataset ds,
                            workload::BuildDatasetInMemory(spec, &c.contents));
  for (const workload::DatasetFile& f : ds.files) c.paths.push_back(f.path);
  return c;
}

/// Stages a corpus over the host path (every byte crosses PCIe, as a client
/// upload does), then flushes the FTL write cache so reads come from NAND.
Status Stage(Device& dev, const Corpus& c) {
  COMPSTOR_RETURN_IF_ERROR(dev.handle->host_fs().Mkdir("/data"));
  for (std::size_t i = 0; i < c.paths.size(); ++i) {
    COMPSTOR_RETURN_IF_ERROR(dev.handle->UploadFile(c.paths[i], c.contents[i]));
  }
  return dev.ssd->host_block_device().Flush();
}

/// Seeded choice of `n` distinct indices in [0, count).
std::vector<std::size_t> SampleIndices(std::size_t count, std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> idx(count);
  std::iota(idx.begin(), idx.end(), 0);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = count; i > 1; --i) std::swap(idx[i - 1], idx[rng.Below(i)]);
  idx.resize(std::min(n, count));
  return idx;
}

class TextWorkload : public Workload {
 protected:
  TextWorkload(std::uint64_t seed, std::uint32_t files, std::uint64_t file_bytes) : seed_(seed) {
    for (std::size_t d = 0; d < kTextDevices; ++d) {
      auto c = MakeCorpus(SubSeed(seed, d), files, file_bytes);
      if (!c.ok()) {
        status_ = c.status();
        return;
      }
      corpora_.push_back(std::move(*c));
    }
  }

  Status StageAll(Watchdog& watchdog) {
    COMPSTOR_RETURN_IF_ERROR(status_);
    COMPSTOR_RETURN_IF_ERROR(MakeDevices(kTextDevices, seed_, watchdog, &devices_));
    for (std::size_t d = 0; d < kTextDevices; ++d) {
      COMPSTOR_RETURN_IF_ERROR(Stage(*devices_[d], corpora_[d]));
    }
    return OkStatus();
  }

  /// Ladder items over device 0's files; `command(i, path)` is item i's
  /// minion.
  std::vector<LadderItem> FileItems(
      std::size_t n, const std::function<proto::Command(std::size_t, const std::string&)>& command) {
    std::vector<LadderItem> items;
    const Corpus& c = corpora_[0];
    for (std::size_t f : SampleIndices(c.paths.size(), n, SubSeed(seed_, 7))) {
      LadderItem item;
      item.file = c.paths[f];
      item.command = command(items.size(), c.paths[f]);
      item.command_reads_file = true;
      item.key = c.paths[f];
      item.value = c.contents[f].substr(0, 1024);
      items.push_back(std::move(item));
    }
    return items;
  }

  std::uint64_t seed_;
  Status status_;
  std::vector<Corpus> corpora_;
};

/// `grep -c the` and `gawk '{w+=NF}'` over every file, alternating, pass
/// after pass: the paper's I/O-bound in-storage analytics.
class ScanWorkload final : public TextWorkload {
 public:
  /// 64 x 128 KiB per device: 8 MiB, the size of the FTL write cache.
  ScanWorkload(std::uint64_t seed, bool smoke) : TextWorkload(seed, smoke ? 4 : 64, 128 * 1024) {
    // Expected outputs, counted here independently of the apps.
    for (const Corpus& c : corpora_) {
      std::vector<std::uint64_t> lines, words;
      for (const std::string& text : c.contents) {
        std::uint64_t l = 0, w = 0;
        std::string_view rest = text;
        while (!rest.empty()) {
          const std::size_t nl = rest.find('\n');
          const std::string_view line = rest.substr(0, nl);
          l += line.find("the") != std::string_view::npos;
          rest = nl == std::string_view::npos ? std::string_view() : rest.substr(nl + 1);
        }
        bool in_word = false;
        for (char ch : text) {
          const bool space = std::isspace(static_cast<unsigned char>(ch)) != 0;
          w += !space && !in_word;
          in_word = !space;
        }
        lines.push_back(l);
        words.push_back(w);
      }
      lines_.push_back(std::move(lines));
      words_.push_back(std::move(words));
    }
  }

  Status SetUp(Watchdog& watchdog) override {
    next_.assign(kTextDevices, 0);
    return StageAll(watchdog);
  }
  std::size_t window() const override { return 8; }

  bool Issue(std::size_t d, bool draining) override {
    if (draining) return false;
    const Corpus& c = corpora_[d];
    const std::uint64_t i = next_[d]++;
    const std::size_t f = (i / 2) % c.paths.size();
    const bool awk = i % 2 == 1;
    const std::uint64_t want = awk ? words_[d][f] : lines_[d][f];
    const std::uint64_t bytes = c.contents[f].size();
    PostMinion(inbox_, *devices_[d], d, Command(awk, c.paths[f]),
               [this, want, bytes, path = c.paths[f]](const proto::Minion& m) {
                 const std::string& out = m.response.stdout_data;
                 if (out != std::to_string(want) + "\n") {
                   return Wrong(path + ": got '" + out + "', want " + std::to_string(want));
                 }
                 input_bytes_ += bytes;
                 return true;
               });
    return true;
  }

  std::uint64_t FinalCheck() override { return 0; }  // every output was checked on arrival

  Result<std::vector<LadderItem>> LadderSample(std::size_t n) override {
    return FileItems(n, [](std::size_t i, const std::string& path) {
      return Command(i % 2 == 1, path);
    });
  }
  std::size_t ladder_items() const override { return 64; }

 private:
  static proto::Command Command(bool awk, const std::string& path) {
    return awk ? AppCommand("gawk", {"{ w += NF } END { print w }", path}, path)
               : AppCommand("grep", {"-c", "the", path}, path);
  }

  std::vector<std::vector<std::uint64_t>> lines_;
  std::vector<std::vector<std::uint64_t>> words_;
  std::vector<std::uint64_t> next_;
};

/// gzip -> gunzip -> bzip2 -> bunzip2 round trips, one file at a time per
/// slot: codec kernels plus fs writes beside the reads.
class CompressWorkload final : public TextWorkload {
 public:
  /// 32 x 64 KiB per device: one compression member per file, and over
  /// 1000 operations in a run, so the reported p99 has ten samples above it.
  CompressWorkload(std::uint64_t seed, bool smoke) : TextWorkload(seed, smoke ? 4 : 32, 64 * 1024) {
    for (const Corpus& c : corpora_) {
      std::vector<std::uint32_t> crcs;
      for (const std::string& text : c.contents) crcs.push_back(util::Crc32c(text.data(), text.size()));
      crcs_.push_back(std::move(crcs));
    }
  }

  Status SetUp(Watchdog& watchdog) override {
    files_.assign(kTextDevices, std::vector<FileState>(corpora_[0].paths.size()));
    cursor_.assign(kTextDevices, 0);
    return StageAll(watchdog);
  }
  std::size_t window() const override { return 8; }

  bool Issue(std::size_t d, bool draining) override {
    std::vector<FileState>& files = files_[d];
    // A started round trip continues in the slot that frees up, so at most
    // window() files are mid-trip and the drain after the measured time
    // stays short. Only then does a new file start, in rotation.
    std::size_t pick = files.size();
    for (std::size_t f = 0; f < files.size() && pick == files.size(); ++f) {
      if (!files[f].busy && files[f].step != 0) pick = f;
    }
    for (std::size_t k = 0; k < files.size() && pick == files.size() && !draining; ++k) {
      const std::size_t f = (cursor_[d] + k) % files.size();
      if (!files[f].busy) pick = f;
    }
    if (pick == files.size()) return false;
    if (files[pick].step == 0) cursor_[d] = pick + 1;
    FileState& s = files[pick];
    s.busy = true;
    static constexpr const char* kTools[] = {"gzip", "gunzip", "bzip2", "bunzip2"};
    static constexpr const char* kSuffix[] = {"", ".gz", "", ".bz2"};
    const std::string path = corpora_[d].paths[pick] + kSuffix[s.step];
    const std::uint64_t bytes = corpora_[d].contents[pick].size();
    PostMinion(inbox_, *devices_[d], d, AppCommand(kTools[s.step], {path}, path),
               [this, &s, bytes](const proto::Minion&) {
                 s.busy = false;
                 s.step = (s.step + 1) % 4;
                 input_bytes_ += bytes;
                 return true;
               });
    return true;
  }

  std::uint64_t FinalCheck() override {
    std::uint64_t wrong = 0;
    for (std::size_t d = 0; d < kTextDevices; ++d) {
      for (std::size_t f = 0; f < files_[d].size(); ++f) {
        const std::string& path = corpora_[d].paths[f];
        const FileState& s = files_[d][f];
        if (s.busy || s.step != 0) {
          Wrong(path + ": round trip did not finish (step " + std::to_string(s.step) + ")");
          ++wrong;
          continue;
        }
        auto data = devices_[d]->agent->filesystem().ReadFileAll(path);
        if (!data.ok() || util::Crc32c(*data) != crcs_[d][f]) {
          Wrong(path + ": content differs from the original after the round trip");
          ++wrong;
        }
      }
    }
    return wrong;
  }

  Result<std::vector<LadderItem>> LadderSample(std::size_t n) override {
    // `gzip -c` writes to the response, so replaying it leaves files intact.
    return FileItems(n, [](std::size_t, const std::string& path) {
      return AppCommand("gzip", {"-c", path}, path);
    });
  }
  std::size_t ladder_items() const override { return 64; }

 private:
  /// A file whose step failed stays busy: it leaves the rotation, and the
  /// final check reports it.
  struct FileState {
    int step = 0;  // next tool of the round trip
    bool busy = false;
  };
  std::vector<std::vector<FileState>> files_;
  std::vector<std::vector<std::uint32_t>> crcs_;
  std::vector<std::size_t> cursor_;
};

// ---------------------------------------------------------------------------
// kv_read and kv_update: YCSB-style point operations on the in-storage LSM

constexpr std::size_t kKvDevices = 2;
constexpr std::size_t kValueBytes = 1024;

std::string KeyOf(std::size_t device, std::size_t item) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%zu_%06zu", device, item);
  return buf;
}

/// A value names its key and version, then deterministic filler.
std::string ValueOf(const std::string& key, std::uint64_t version) {
  std::string v = key + "@" + std::to_string(version) + ":";
  const std::size_t head = v.size();
  v.resize(kValueBytes);
  Fill(util::Crc32c(key.data(), key.size()), version, v.data() + head, kValueBytes - head);
  return v;
}

class KvWorkload final : public Workload {
 public:
  /// `get_pct` of operations are gets, the rest updates; keys are drawn
  /// zipfian(0.99) or uniformly.
  KvWorkload(std::uint64_t seed, bool smoke, int get_pct, bool zipf)
      : seed_(seed), get_pct_(get_pct), zipf_(zipf), records_(smoke ? 128 : 1024),
        warmup_ops_(smoke ? 64 : 1000) {}

  Status SetUp(Watchdog& watchdog) override {
    COMPSTOR_RETURN_IF_ERROR(MakeDevices(kKvDevices, seed_, watchdog, &devices_));
    versions_.clear();
    ranks_.clear();
    zipf_dist_.clear();
    rngs_.clear();
    for (std::size_t d = 0; d < kKvDevices; ++d) {
      versions_.emplace_back(records_);
      // Rank r of the request distribution maps to a seeded item, so the hot
      // set differs from seed to seed.
      ranks_.push_back(SampleIndices(records_, records_, SubSeed(seed_, 20 + d)));
      zipf_dist_.emplace_back(records_, SubSeed(seed_, 30 + d));
      rngs_.emplace_back(SubSeed(seed_, 40 + d));
    }
    // Load: every record at version 0, 64 puts per minion.
    constexpr std::size_t kBatch = 64;
    std::vector<std::size_t> loaded(kKvDevices, 0);
    LoopResult load = RunClosedLoop(
        inbox_, watchdog, kKvDevices, 4, 0, 0, [&](std::size_t d, bool) {
          if (loaded[d] >= records_) return false;
          std::vector<kv::Op> puts;
          for (std::size_t i = loaded[d]; i < std::min(records_, loaded[d] + kBatch); ++i) {
            puts.push_back(KvOp(kv::OpType::kPut, KeyOf(d, i), ValueOf(KeyOf(d, i), 0)));
          }
          loaded[d] += puts.size();
          PostMinion(inbox_, *devices_[d], d, KvCommand(std::move(puts)), [](const proto::Minion& m) {
            for (const kv::OpResult& r : m.response.kv.results) {
              if (!r.ok()) return Wrong("kv load put failed");
            }
            return true;
          });
          return true;
        });
    if (load.failed != 0) return Internal("kv load failed");
    // Warm-up with the workload's own mix fills the block caches.
    LoopResult warm = RunClosedLoop(inbox_, watchdog, kKvDevices, window(), 0, warmup_ops_,
                                    [this](std::size_t d, bool draining) { return Issue(d, draining); });
    if (warm.failed != 0) return Internal("kv warm-up failed");
    return OkStatus();
  }

  std::size_t window() const override { return 16; }

  bool Issue(std::size_t d, bool draining) override {
    if (draining) return false;
    const std::size_t rank = zipf_ ? zipf_dist_[d].Next() : rngs_[d].Below(records_);
    std::size_t item = ranks_[d][rank];
    Versions& versions = versions_[d];
    if (static_cast<int>(rngs_[d].Below(100)) < get_pct_) {
      const std::string key = KeyOf(d, item);
      const std::uint64_t lo = versions.acked(item);
      PostMinion(inbox_, *devices_[d], d, KvCommand({KvOp(kv::OpType::kGet, key)}),
                 [this, &versions, item, lo, key](const proto::Minion& m) {
                   const auto& results = m.response.kv.results;
                   if (results.size() != 1 || !results[0].ok() || !results[0].found) {
                     return Wrong("kv get " + key + ": missing");
                   }
                   const std::string& v = results[0].value;
                   const std::size_t at = v.find('@');
                   const std::uint64_t got =
                       at == std::string::npos ? 0 : std::strtoull(v.c_str() + at + 1, nullptr, 10);
                   if (v.compare(0, at, key) != 0 || !versions.Plausible(item, lo, got) ||
                       v != ValueOf(key, got)) {
                     return Wrong("kv get " + key + ": version " + std::to_string(got) +
                                  " not in [" + std::to_string(lo) + ", issued]");
                   }
                   input_bytes_ += key.size() + v.size();
                   return true;
                 });
    } else {
      std::uint64_t version = 0;
      item = versions.BeginWrite(item, &version);
      const std::string key = KeyOf(d, item);
      std::string value = ValueOf(key, version);
      const std::uint64_t bytes = key.size() + value.size();
      PostMinion(inbox_, *devices_[d], d, KvCommand({KvOp(kv::OpType::kPut, key, std::move(value))}),
                 [this, &versions, item, version, bytes](const proto::Minion& m) {
                   const auto& results = m.response.kv.results;
                   const bool ok = results.size() == 1 && results[0].ok();
                   versions.EndWrite(item, version, ok);
                   if (!ok) return Wrong("kv put failed");
                   input_bytes_ += bytes;
                   ++puts_;
                   return true;
                 });
    }
    return true;
  }

  std::uint64_t FinalCheck() override { return 0; }  // every get was checked on arrival

  Result<std::vector<LadderItem>> LadderSample(std::size_t n) override {
    std::vector<LadderItem> items;
    fs::Filesystem& fs = devices_[0]->agent->filesystem();
    COMPSTOR_RETURN_IF_ERROR(fs.Mkdir("/ladder"));
    for (std::size_t item : SampleIndices(records_, n, SubSeed(seed_, 7))) {
      LadderItem li;
      li.key = KeyOf(0, item);
      li.value = ValueOf(li.key, versions_[0].acked(item));
      li.file = "/ladder/" + li.key;
      COMPSTOR_RETURN_IF_ERROR(fs.WriteFile(li.file, li.value));
      li.command = KvCommand({KvOp(kv::OpType::kGet, li.key)});
      items.push_back(std::move(li));
    }
    return items;
  }
  std::size_t ladder_items() const override { return 256; }

 private:
  const std::uint64_t seed_;
  const int get_pct_;
  const bool zipf_;
  const std::size_t records_;     // per device
  const std::uint64_t warmup_ops_;
  std::vector<Versions> versions_;
  std::vector<std::vector<std::size_t>> ranks_;
  std::vector<workload::ZipfDistribution> zipf_dist_;
  std::vector<util::Xoshiro256> rngs_;
};

// ---------------------------------------------------------------------------
// host_io: the plain-SSD host path, no in-storage compute

constexpr std::uint32_t kBlockBytes = 4096;

/// A block names its LBA and version in its first 16 bytes, then filler.
void Stamp(std::uint64_t lba, std::uint64_t version, std::uint8_t* out) {
  std::memcpy(out, &lba, 8);
  std::memcpy(out + 8, &version, 8);
  Fill(lba, version, reinterpret_cast<char*>(out) + 16, kBlockBytes - 16);
}

class HostIoWorkload final : public Workload {
 public:
  HostIoWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed), lbas_(smoke ? 1024 : 16384), versions_(lbas_) {}

  Status SetUp(Watchdog& watchdog) override {
    COMPSTOR_RETURN_IF_ERROR(MakeDevices(1, seed_, watchdog, &devices_));
    versions_ = Versions(lbas_);
    rng_ = util::Xoshiro256(SubSeed(seed_, 50));
    // The top of the LBA space: the filesystem allocates from the bottom,
    // so the ladder's files never land here.
    base_ = devices_[0]->ssd->ftl().user_pages() - lbas_;
    // Prefill every block at version 0, 64 blocks per write.
    constexpr std::uint32_t kRun = 64;
    std::uint64_t next = 0;
    LoopResult fill = RunClosedLoop(inbox_, watchdog, 1, 8, 0, 0, [&](std::size_t, bool) {
      if (next >= lbas_) return false;
      auto buf = std::make_shared<std::vector<std::uint8_t>>(kRun * kBlockBytes);
      for (std::uint32_t i = 0; i < kRun; ++i) Stamp(next + i, 0, buf->data() + i * kBlockBytes);
      PostIo(inbox_, *devices_[0], 0, nvme::Opcode::kWrite, base_ + next, kRun, std::move(buf),
             [] { return true; });
      next += kRun;
      return true;
    });
    if (fill.failed != 0) return Internal("host_io prefill failed");
    // Start from NAND: drain the controller's write cache.
    return devices_[0]->ssd->host_interface().FlushSync().status;
  }

  std::size_t window() const override { return 32; }

  bool Issue(std::size_t, bool draining) override {
    if (draining) return false;
    std::size_t lba = rng_.Below(lbas_);
    auto buf = std::make_shared<std::vector<std::uint8_t>>(kBlockBytes);
    if (rng_.Below(100) < 70) {
      const std::uint64_t lo = versions_.acked(lba);
      PostIo(inbox_, *devices_[0], 0, nvme::Opcode::kRead, base_ + lba, 1, buf,
             [this, buf, lba, lo] {
               std::uint64_t got_lba = 0, got = 0;
               std::memcpy(&got_lba, buf->data(), 8);
               std::memcpy(&got, buf->data() + 8, 8);
               std::vector<std::uint8_t> want(kBlockBytes);
               Stamp(lba, got, want.data());
               if (got_lba != lba || !versions_.Plausible(lba, lo, got) || *buf != want) {
                 return Wrong("lba " + std::to_string(lba) + ": read version " +
                              std::to_string(got) + ", acknowledged " + std::to_string(lo));
               }
               input_bytes_ += kBlockBytes;
               return true;
             });
    } else {
      std::uint64_t version = 0;
      lba = versions_.BeginWrite(lba, &version);
      Stamp(lba, version, buf->data());
      PostIo(inbox_, *devices_[0], 0, nvme::Opcode::kWrite, base_ + lba, 1, std::move(buf),
             [this, lba, version] {
               versions_.EndWrite(lba, version, true);
               input_bytes_ += kBlockBytes;
               return true;
             });
    }
    return true;
  }

  std::uint64_t FinalCheck() override { return 0; }  // every read was checked on arrival

  Result<std::vector<LadderItem>> LadderSample(std::size_t n) override {
    std::vector<LadderItem> items;
    fs::Filesystem& fs = devices_[0]->agent->filesystem();
    COMPSTOR_RETURN_IF_ERROR(fs.Mkdir("/ladder"));
    std::vector<std::uint8_t> block(kBlockBytes);
    for (std::size_t lba : SampleIndices(lbas_, n, SubSeed(seed_, 7))) {
      Stamp(lba, versions_.acked(lba), block.data());
      LadderItem li;
      li.file = "/ladder/lba" + std::to_string(lba);
      COMPSTOR_RETURN_IF_ERROR(fs.WriteFile(li.file, block));
      li.command = AppCommand("wc", {"-c", li.file}, li.file);
      li.command_reads_file = true;
      li.key = "lba" + std::to_string(lba);
      li.value.assign(reinterpret_cast<const char*>(block.data()), 1024);
      items.push_back(std::move(li));
    }
    return items;
  }
  std::size_t ladder_items() const override { return 256; }

 private:
  const std::uint64_t seed_;
  const std::uint64_t lbas_;
  Versions versions_;
  util::Xoshiro256 rng_;
  std::uint64_t base_ = 0;
};

}  // namespace

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name, std::uint64_t seed,
                                               bool smoke) {
  std::unique_ptr<Workload> w;
  if (name == "scan") w = std::make_unique<ScanWorkload>(seed, smoke);
  if (name == "compress") w = std::make_unique<CompressWorkload>(seed, smoke);
  if (name == "kv_read") w = std::make_unique<KvWorkload>(seed, smoke, 95, true);
  if (name == "kv_update") w = std::make_unique<KvWorkload>(seed, smoke, 50, false);
  if (name == "host_io") w = std::make_unique<HostIoWorkload>(seed, smoke);
  if (w == nullptr) return InvalidArgument("unknown workload '" + name + "'");
  return w;
}

}  // namespace compstor::cbench
