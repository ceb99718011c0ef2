#include "src/placement/dhp.hpp"

#include <cassert>

#include "src/obs/recorder.hpp"

namespace uvs::placement {

namespace {
const char* LayerBytesCounter(hw::Layer layer) {
  switch (layer) {
    case hw::Layer::kDram: return "placement.dram.bytes";
    case hw::Layer::kNodeLocalSsd: return "placement.ssd.bytes";
    case hw::Layer::kSharedBurstBuffer: return "placement.bb.bytes";
    case hw::Layer::kPfs: return "placement.pfs.bytes";
  }
  return "placement.unknown.bytes";
}
}  // namespace

Bytes DefaultLogCapacity(Bytes layer_capacity, int sharers) {
  assert(sharers > 0);
  return layer_capacity / static_cast<Bytes>(sharers);
}

namespace {
std::array<Bytes, hw::kLayerCount> OpenLogs(
    const std::vector<storage::LayerStore*>& stores,
    std::array<storage::LogFile*, hw::kLayerCount>& logs, const storage::LogKey& key,
    const std::vector<Bytes>& requested) {
  assert(stores.size() == requested.size());
  std::array<Bytes, hw::kLayerCount> caps{};
  for (std::size_t i = 0; i < stores.size(); ++i) {
    storage::LayerStore* store = stores[i];
    assert(store != nullptr);
    const auto layer_idx = static_cast<std::size_t>(store->layer());
    storage::LogFile* log = store->OpenLog(key, requested[i]);
    if (log != nullptr) {
      logs[layer_idx] = log;
      caps[layer_idx] = log->capacity();
    }
  }
  return caps;  // PFS (last layer) stays 0 == unbounded tail in the codec
}
}  // namespace

DhpWriterChain::DhpWriterChain(storage::LogKey key, std::vector<storage::LayerStore*> stores,
                               const std::vector<Bytes>& requested_capacities)
    : key_(key),
      first_layer_(stores.empty() ? hw::Layer::kPfs : stores.front()->layer()),
      codec_(OpenLogs(stores, logs_, key_, requested_capacities)) {}

Bytes DhpWriterChain::PlacedOn(hw::Layer layer) const {
  return placed_[static_cast<std::size_t>(layer)];
}

std::vector<Placement> DhpWriterChain::Append(Bytes len) {
  std::vector<Placement> out;
  Bytes remaining = len;
  for (int i = 0; i < hw::kLayerCount - 1 && remaining > 0; ++i) {
    storage::LogFile* log = logs_[static_cast<std::size_t>(i)];
    if (log == nullptr) continue;
    for (const auto& extent : log->AppendUpTo(remaining)) {
      const auto layer = static_cast<hw::Layer>(i);
      auto va = codec_.Encode(layer, extent.addr);
      assert(va.ok());
      out.push_back(Placement{layer, extent, *va});
      placed_[static_cast<std::size_t>(i)] += extent.len;
      remaining -= extent.len;
    }
  }
  if (remaining > 0) {
    // Spill tail: the destination layer (PFS) is unbounded.
    constexpr auto kLast = static_cast<std::size_t>(hw::kLayerCount - 1);
    auto va = codec_.Encode(hw::Layer::kPfs, pfs_cursor_);
    assert(va.ok());
    out.push_back(Placement{hw::Layer::kPfs, storage::Extent{pfs_cursor_, remaining}, *va});
    placed_[kLast] += remaining;
    pfs_cursor_ += remaining;
  }
  if (obs::Enabled()) {
    obs::Count("placement.appends");
    for (const auto& placement : out)
      obs::Count(LayerBytesCounter(placement.layer), placement.extent.len);
    // A chain hop = the append could not be satisfied by the first layer
    // alone (DHP spilled down the hierarchy, §II-B1). A chain with no cache
    // layer starts at the PFS, so landing there is not a spill.
    if (out.size() > 1 || (!out.empty() && out.front().layer != first_layer_))
      obs::Count("placement.spills");
  }
  return out;
}

Status DhpWriterChain::Free(const Placement& placement) {
  const auto idx = static_cast<std::size_t>(placement.layer);
  if (placement.layer == hw::Layer::kPfs) {
    // PFS space is managed by the file system, not the log chain.
    placed_[idx] -= placement.extent.len;
    return Status::Ok();
  }
  storage::LogFile* log = logs_[idx];
  if (log == nullptr) return FailedPreconditionError("no log on that layer");
  UVS_RETURN_IF_ERROR(log->Free(placement.extent));
  placed_[idx] -= placement.extent.len;
  return Status::Ok();
}

}  // namespace uvs::placement
