// Virtual Address codec (§II-B2, Eq. 1).
//
// A producer process's data for one logical file lives in a chain of log
// files, one per storage layer, with per-layer capacities C_0..C_{L-1}
// fixed at open time. The virtual address of a byte at physical address A
// inside the layer-i log is
//     VA = C_0 + C_1 + ... + C_{i-1} + A,
// i.e. the prefix sum of lower-layer log capacities plus the offset in the
// layer's own log. (The paper's Fig. 2 example: D4 at physical address 1
// in the shared-BB log behind a node-local log of capacity 2 has VA 3.)
// The VA therefore identifies both the storage layer and the physical
// address within that layer's log.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "src/common/status.hpp"
#include "src/common/units.hpp"
#include "src/hw/params.hpp"

namespace uvs::placement {

/// A decoded virtual address: which layer and where inside its log.
struct LayerAddress {
  hw::Layer layer = hw::Layer::kDram;
  Bytes physical = 0;

  friend bool operator==(const LayerAddress&, const LayerAddress&) = default;
};

class VirtualAddressCodec {
 public:
  /// `log_capacities[i]` is the producer's log capacity on layer i (0 for
  /// layers the producer has no log on): between 1 and hw::kLayerCount
  /// layers, or std::invalid_argument. The last layer (PFS) is treated as
  /// unbounded.
  explicit VirtualAddressCodec(std::span<const Bytes> log_capacities);
  VirtualAddressCodec(std::initializer_list<Bytes> log_capacities)
      : VirtualAddressCodec(
            std::span<const Bytes>(log_capacities.begin(), log_capacities.size())) {}

  /// The layer's log capacity; 0 for a layer beyond the codec's layers.
  Bytes capacity(hw::Layer layer) const { return capacities_[static_cast<std::size_t>(layer)]; }

  /// Eq. 1. `physical` must be within the layer's log (last layer exempt).
  Result<Bytes> Encode(hw::Layer layer, Bytes physical) const;

  /// Inverse of Encode.
  Result<LayerAddress> Decode(Bytes va) const;

 private:
  std::array<Bytes, hw::kLayerCount> capacities_{};  // zero past layers_
  std::array<Bytes, hw::kLayerCount> prefix_{};      // prefix_[i] = sum of capacities_[0..i-1]
  std::size_t layers_ = 0;
};

}  // namespace uvs::placement
