#include "src/placement/virtual_address.hpp"

#include <stdexcept>
#include <string>

namespace uvs::placement {

VirtualAddressCodec::VirtualAddressCodec(std::span<const Bytes> log_capacities)
    : layers_(log_capacities.size()) {
  if (layers_ == 0 || layers_ > capacities_.size())
    throw std::invalid_argument("a VA codec needs 1.." + std::to_string(hw::kLayerCount) +
                                " layers, got " + std::to_string(layers_));
  for (std::size_t i = 0; i < layers_; ++i) {
    capacities_[i] = log_capacities[i];
    if (i + 1 < layers_) prefix_[i + 1] = prefix_[i] + capacities_[i];
  }
}

Result<Bytes> VirtualAddressCodec::Encode(hw::Layer layer, Bytes physical) const {
  const auto i = static_cast<std::size_t>(layer);
  if (i >= layers_) return InvalidArgumentError("layer out of range");
  const bool last = i + 1 == layers_;
  if (!last && physical >= capacities_[i])
    return OutOfRangeError("physical address " + std::to_string(physical) +
                           " beyond layer log capacity " + std::to_string(capacities_[i]));
  return prefix_[i] + physical;
}

Result<LayerAddress> VirtualAddressCodec::Decode(Bytes va) const {
  // Find the layer whose [prefix_[i], prefix_[i+1]) interval contains va;
  // the final layer is open-ended.
  for (std::size_t i = 0; i + 1 < layers_; ++i) {
    if (va < prefix_[i + 1]) {
      if (capacities_[i] == 0) return InternalError("VA maps into a zero-capacity layer");
      return LayerAddress{static_cast<hw::Layer>(i), va - prefix_[i]};
    }
  }
  return LayerAddress{static_cast<hw::Layer>(layers_ - 1), va - prefix_[layers_ - 1]};
}

}  // namespace uvs::placement
