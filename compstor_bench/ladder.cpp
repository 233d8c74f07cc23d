#include "ladder.hpp"

#include <array>

#include "ecc/page_codec.hpp"
#include "telemetry/trace.hpp"

namespace compstor::cbench {
namespace {

/// Runs `f` and adds its wall time in microseconds to `*us`.
template <typename F>
auto Timed(double* us, F&& f) {
  const Clock::time_point t0 = Clock::now();
  auto r = f();
  *us += std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  return r;
}

Status Check(bool ok, const std::string& what) {
  return ok ? OkStatus() : Internal("ladder: " + what);
}

// Span names, in report order.
enum Span : int {
  kClient, kProto, kVendor, kSpawn, kApp, kKvGet, kKvPut, kFsRead, kNvmeIo,
  kInternalRead, kFtlRead, kFlashRead, kEccDecode, kFsWrite, kInternalWrite,
  kFtlWrite, kEccEncode, kSpanCount
};
constexpr const char* kSpanNames[kSpanCount] = {
    "client.call", "proto.codec", "nvme.vendor", "isps.spawn", "apps.kernel",
    "kv.get", "kv.put", "fs.read", "nvme.io", "ssd.internal_read", "ftl.read",
    "flash.read", "ecc.decode", "fs.write", "ssd.internal_write", "ftl.write",
    "ecc.encode"};
using Spans = std::array<double, kSpanCount>;

/// One item's replay: every span of the ladder, in microseconds.
Status Replay(Device& dev, kv::KvStore& store, const LadderItem& item, std::size_t index,
              Spans* s) {
  s->fill(0);
  fs::Filesystem& fs = dev.agent->filesystem();
  nvme::HostInterface& host = dev.ssd->host_interface();
  ssd::BlockDevice& internal = dev.ssd->internal_block_device();
  ftl::Ftl& ftl = dev.ssd->ftl();
  const flash::Geometry& geo = dev.ssd->array().geometry();
  const ecc::PageCodec codec(geo.page_data_bytes, geo.page_spare_bytes);
  const std::size_t page = geo.page_data_bytes;

  // One untimed run first, so every timed step finds the caches (the kv
  // block cache above all) in the same state.
  COMPSTOR_RETURN_IF_ERROR(dev.handle->SendMinion(item.command).Get(30.0).status());

  // client -> proto, nvme.vendor -> isps.spawn -> apps.kernel
  auto minion = Timed(&(*s)[kClient], [&] { return dev.handle->SendMinion(item.command).Get(30.0); });
  COMPSTOR_RETURN_IF_ERROR(minion.status());
  COMPSTOR_RETURN_IF_ERROR(Check(minion->response.ok(), "minion failed: " + minion->response.status_message));
  auto round_trip = Timed(&(*s)[kProto], [&] {
    return proto::DeserializeMinion(proto::Serialize(*minion));
  });
  COMPSTOR_RETURN_IF_ERROR(round_trip.status());

  // The vendor and spawn steps carry a trace context like the client's
  // minions do, so they pay the same device-side span and ledger work.
  proto::Minion request;
  request.id = index + 1;
  request.command = item.command;
  request.command.trace_query_id = telemetry::NextQueryId();
  request.command.trace_parent_span = telemetry::NextSpanId();
  std::vector<std::uint8_t> payload = proto::Serialize(request);
  nvme::Completion cqe = Timed(&(*s)[kVendor], [&] {
    return host.VendorSync(nvme::Opcode::kInSituMinion, std::move(payload));
  });
  COMPSTOR_RETURN_IF_ERROR(cqe.status);
  auto vendor_reply = proto::DeserializeMinion(cqe.payload);
  COMPSTOR_RETURN_IF_ERROR(vendor_reply.status());
  COMPSTOR_RETURN_IF_ERROR(Check(vendor_reply->response.ok(), "vendor minion failed"));

  proto::Command traced = item.command;
  traced.trace_query_id = telemetry::NextQueryId();
  traced.trace_parent_span = telemetry::NextSpanId();
  proto::Response spawned = Timed(&(*s)[kSpawn], [&] { return dev.agent->runtime().SpawnSync(traced); });
  COMPSTOR_RETURN_IF_ERROR(Check(spawned.ok(), "spawn failed: " + spawned.status_message));

  COMPSTOR_ASSIGN_OR_RETURN(std::unique_ptr<apps::Application> app,
                            dev.agent->registry().Create(item.command.executable));
  // The kernel alone: no task runtime, no cost model, no read-ahead.
  apps::AppContext ctx;
  ctx.fs = &fs;
  ctx.kv_stores = &dev.agent->runtime().kv_stores();
  kv::Reply kv_reply;
  if (!item.command.kv_request.empty()) {
    ctx.kv_request = &item.command.kv_request;
    ctx.kv_reply = &kv_reply;
  }
  Result<int> rc = Timed(&(*s)[kApp], [&] { return app->Run(ctx, item.command.args); });
  COMPSTOR_RETURN_IF_ERROR(rc.status());
  COMPSTOR_RETURN_IF_ERROR(Check(*rc == 0, "app exit " + std::to_string(*rc)));

  // kv
  std::string value;
  bool found = false;
  kv::IoStats io;
  Status st = Timed(&(*s)[kKvGet], [&] { return store.Get(item.key, &value, &found, &io); });
  COMPSTOR_RETURN_IF_ERROR(st);
  COMPSTOR_RETURN_IF_ERROR(Check(found, "kv key missing: " + item.key));
  st = Timed(&(*s)[kKvPut], [&] { return store.Put(item.key, value, &io); });
  COMPSTOR_RETURN_IF_ERROR(st);

  // fs.read -> ssd.internal_read -> ftl.read -> flash.read + ecc.decode
  std::vector<std::uint8_t> content;
  st = Timed(&(*s)[kFsRead], [&]() -> Status {
    COMPSTOR_ASSIGN_OR_RETURN(std::unique_ptr<fs::ByteSource> src, fs.OpenRead(item.file));
    std::vector<std::uint8_t> chunk(fs::kDefaultChunkBytes);
    for (;;) {
      COMPSTOR_ASSIGN_OR_RETURN(std::size_t n, src->Read(chunk));
      if (n == 0) return OkStatus();
      content.insert(content.end(), chunk.begin(), chunk.begin() + static_cast<long>(n));
    }
  });
  COMPSTOR_RETURN_IF_ERROR(st);
  COMPSTOR_ASSIGN_OR_RETURN(std::uint32_t ino, fs.Lookup(item.file));
  COMPSTOR_ASSIGN_OR_RETURN(std::vector<std::uint64_t> lbas, fs.InodeExtents(ino));

  std::vector<std::uint8_t> buf(page);
  std::vector<std::uint8_t> raw(dev.ssd->array().page_total_bytes());
  for (std::uint64_t lba : lbas) {
    auto host_buf = std::make_shared<std::vector<std::uint8_t>>(page);
    nvme::Completion io_cqe = Timed(&(*s)[kNvmeIo], [&] { return host.ReadSync(lba, 1, host_buf); });
    COMPSTOR_RETURN_IF_ERROR(io_cqe.status);
    COMPSTOR_RETURN_IF_ERROR(Timed(&(*s)[kInternalRead], [&] { return internal.Read(lba, buf); }));
    COMPSTOR_RETURN_IF_ERROR(Timed(&(*s)[kFtlRead], [&] { return ftl.ReadPage(lba, buf); }));
    COMPSTOR_ASSIGN_OR_RETURN(flash::Ppn ppn, ftl.LookupPpn(lba));
    flash::OpResult r = Timed(&(*s)[kFlashRead], [&] { return dev.ssd->array().ReadPage(ppn, raw); });
    COMPSTOR_RETURN_IF_ERROR(r.status);
    auto decoded = Timed(&(*s)[kEccDecode], [&] {
      return codec.Decode(std::span(raw).first(page), std::span(raw).subspan(page));
    });
    COMPSTOR_RETURN_IF_ERROR(decoded.status());
  }

  // fs.write -> ssd.internal_write -> ftl.write; ecc.encode
  const std::string scratch = "/ladder_w/" + std::to_string(index);
  st = Timed(&(*s)[kFsWrite], [&]() -> Status {
    COMPSTOR_ASSIGN_OR_RETURN(std::unique_ptr<fs::ByteSink> sink, fs.OpenWrite(scratch));
    COMPSTOR_RETURN_IF_ERROR(sink->Write(content));
    return sink->Close();
  });
  COMPSTOR_RETURN_IF_ERROR(st);
  COMPSTOR_ASSIGN_OR_RETURN(std::uint32_t scratch_ino, fs.Lookup(scratch));
  COMPSTOR_ASSIGN_OR_RETURN(std::vector<std::uint64_t> scratch_lbas, fs.InodeExtents(scratch_ino));
  std::vector<std::uint8_t> spare(geo.page_spare_bytes);
  for (std::uint64_t lba : scratch_lbas) {
    COMPSTOR_RETURN_IF_ERROR(internal.Read(lba, buf));
    COMPSTOR_RETURN_IF_ERROR(Timed(&(*s)[kInternalWrite], [&] { return internal.Write(lba, buf); }));
    COMPSTOR_RETURN_IF_ERROR(Timed(&(*s)[kFtlWrite], [&] { return ftl.WritePage(lba, buf); }));
    COMPSTOR_RETURN_IF_ERROR(Timed(&(*s)[kEccEncode], [&] { return codec.Encode(buf, spare); }));
  }
  return OkStatus();
}

/// Self time of each reported layer from one item's spans.
std::vector<std::pair<std::string, double>> SelfTimes(const Spans& s, const LadderItem& item) {
  const bool kv_get = !item.command.kv_request.empty();
  return {
      {"client.call_us", s[kClient] - s[kProto] - s[kVendor]},
      {"proto.codec_us", s[kProto]},
      {"nvme.vendor_us", s[kVendor] - s[kSpawn]},
      {"nvme.io_us", s[kNvmeIo] - s[kFtlRead]},
      {"isps.spawn_us", s[kSpawn] - s[kApp]},
      {"apps.kernel_us",
       s[kApp] - (item.command_reads_file ? s[kFsRead] : 0) - (kv_get ? s[kKvGet] : 0)},
      {"kv.get_us", s[kKvGet]},
      {"kv.put_us", s[kKvPut]},
      {"fs.read_us", s[kFsRead] - s[kInternalRead]},
      {"fs.write_us", s[kFsWrite] - s[kInternalWrite]},
      {"ssd.internal_read_us", s[kInternalRead] - s[kFtlRead]},
      {"ssd.internal_write_us", s[kInternalWrite] - s[kFtlWrite]},
      {"ftl.read_us", s[kFtlRead] - s[kFlashRead] - s[kEccDecode]},
      {"ftl.write_us", s[kFtlWrite]},
      {"flash.read_us", s[kFlashRead]},
      {"ecc.decode_us", s[kEccDecode]},
      {"ecc.encode_us", s[kEccEncode]},
  };
}

}  // namespace

Result<LadderResult> RunLadder(Device& dev, const std::vector<LadderItem>& items,
                               Watchdog& watchdog) {
  if (items.empty()) return InvalidArgument("ladder: no items");
  fs::Filesystem& fs = dev.agent->filesystem();
  // Every key is in the store, in a flushed sorted run, and every page of
  // the device is on NAND, so the read calls reach the media.
  COMPSTOR_ASSIGN_OR_RETURN(kv::KvStore * store, dev.agent->runtime().kv_stores().Acquire("/kv"));
  kv::IoStats io;
  for (const LadderItem& item : items) {
    std::string value;
    bool found = false;
    COMPSTOR_RETURN_IF_ERROR(store->Get(item.key, &value, &found, &io));
    if (!found) COMPSTOR_RETURN_IF_ERROR(store->Put(item.key, item.value, &io));
  }
  COMPSTOR_RETURN_IF_ERROR(store->Flush(&io));
  Status st = fs.Mkdir("/ladder_w");
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  COMPSTOR_RETURN_IF_ERROR(dev.ssd->ftl().Flush());

  std::vector<std::vector<double>> self(SelfTimes(Spans{}, items[0]).size());
  std::vector<std::vector<double>> spans(kSpanCount);
  for (std::size_t i = 0; i < items.size(); ++i) {
    watchdog.Beat();
    Spans s;
    COMPSTOR_RETURN_IF_ERROR(Replay(dev, *store, items[i], i, &s));
    const auto layer_self = SelfTimes(s, items[i]);
    for (std::size_t k = 0; k < layer_self.size(); ++k) self[k].push_back(layer_self[k].second);
    for (int k = 0; k < kSpanCount; ++k) spans[k].push_back(s[k]);
  }

  LadderResult out;
  out.items = items.size();
  const auto names = SelfTimes(Spans{}, items[0]);
  for (std::size_t k = 0; k < names.size(); ++k) out.self_us.emplace_back(names[k].first, Median(self[k]));
  for (int k = 0; k < kSpanCount; ++k) out.span_us.emplace_back(kSpanNames[k], Median(spans[k]));
  return out;
}

}  // namespace compstor::cbench
