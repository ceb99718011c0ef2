// Distributed and Hierarchical data Placement (§II-B1).
//
// Each (logical file, producer process) owns a chain of log files, one per
// storage layer, fastest layer first. Appends fill the current layer's log
// and spill the remainder to the next layer; the final layer (PFS) is
// unbounded. Every placed piece gets a virtual address via Eq. 1, so
// (producer, VA) uniquely identifies its bytes across the hierarchy.
#pragma once

#include <array>
#include <vector>

#include "src/common/units.hpp"
#include "src/hw/params.hpp"
#include "src/placement/virtual_address.hpp"
#include "src/storage/layer_store.hpp"

namespace uvs::placement {

/// Default per-log capacity: c / p, where c is the layer capacity
/// available to this scope and p the number of processes sharing it
/// (§II-B1: node-local layers divide by local process count, shared layers
/// by the total client count).
Bytes DefaultLogCapacity(Bytes layer_capacity, int sharers);

/// One placed piece of an append.
struct Placement {
  hw::Layer layer = hw::Layer::kDram;
  storage::Extent extent;  // physical address within the layer's log
  Bytes va = 0;            // Eq. 1 virtual address of extent.addr

  friend bool operator==(const Placement&, const Placement&) = default;
};

/// The spill chain for one (file, producer). Layer stores are borrowed and
/// must outlive the chain. Its state is a few fixed per-layer arrays, so a
/// chain is one flat object that its owner can hold by value.
class DhpWriterChain {
 public:
  /// `stores` are the cache layers fastest-first (DRAM [, node SSD] [, BB]),
  /// at most one per layer; logs are opened in each with capacity
  /// min(requested_i, space left). The PFS always terminates the chain.
  DhpWriterChain(storage::LogKey key, std::vector<storage::LayerStore*> stores,
                 const std::vector<Bytes>& requested_capacities);

  const VirtualAddressCodec& codec() const { return codec_; }
  const storage::LogKey& key() const { return key_; }

  /// Bytes appended so far per layer (indexed by hw::Layer).
  Bytes PlacedOn(hw::Layer layer) const;

  /// Places `len` bytes, spilling across layers; always succeeds (the PFS
  /// tail is unbounded).
  std::vector<Placement> Append(Bytes len);

  /// Releases a previously placed extent (logs recycle their chunks; PFS
  /// space is not reclaimed).
  Status Free(const Placement& placement);

 private:
  storage::LogKey key_;
  hw::Layer first_layer_;  // the fastest store's layer; the PFS with none
  std::array<storage::LogFile*, hw::kLayerCount> logs_{};  // nullptr if layer got no space
  VirtualAddressCodec codec_;
  Bytes pfs_cursor_ = 0;
  std::array<Bytes, hw::kLayerCount> placed_{};  // per hw::Layer
};

}  // namespace uvs::placement
