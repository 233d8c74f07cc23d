// The layer ladder of a traced run: each sample item is replayed once per
// layer, through that layer's public call, on the same input, with a span
// around every call. A layer's self time is its span minus the spans of the
// layers it calls into, for the same item:
//
//   client.call      SendMinion().Get()       calls proto.codec, nvme.vendor
//   proto.codec      Serialize + DeserializeMinion
//   nvme.vendor      VendorSync(kInSituMinion) calls isps.spawn
//   isps.spawn       TaskRuntime::SpawnSync    calls apps.kernel
//   apps.kernel      Application::Run on a bare AppContext over the device
//                    filesystem                calls fs.read when the minion
//                                              reads the file, kv.get for a
//                                              kv get
//   kv.get, kv.put   KvStore::Get / Put on device 0's store at /kv
//   fs.read          Filesystem::OpenRead     calls ssd.internal_read
//   nvme.io          ReadSync of the file's pages over the host path
//                                              calls ftl.read
//   ssd.internal_read  internal_block_device().Read  calls ftl.read
//   ftl.read         Ftl::ReadPage            calls flash.read, ecc.decode
//   flash.read       Array::ReadPage(LookupPpn)
//   ecc.decode       PageCodec::Decode
//   fs.write         Filesystem::OpenWrite to a scratch file
//                                              calls ssd.internal_write
//   ssd.internal_write  internal_block_device().Write of the scratch pages
//                                              calls ftl.write
//   ftl.write        Ftl::WritePage of the same pages (absorbed by the
//                    controller write cache; NAND programs happen on eviction)
//   ecc.encode       PageCodec::Encode
//
// Writes rewrite scratch pages with their own content. The replay runs on
// an idle device, after the measured phase.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "engine.hpp"
#include "workloads.hpp"

namespace compstor::cbench {

struct LadderResult {
  std::size_t items = 0;
  /// Median over items of each layer's self time, in microseconds.
  std::vector<std::pair<std::string, double>> self_us;
  /// Median over items of each call's whole span, in microseconds.
  std::vector<std::pair<std::string, double>> span_us;
};

Result<LadderResult> RunLadder(Device& dev, const std::vector<LadderItem>& items,
                               Watchdog& watchdog);

}  // namespace compstor::cbench
