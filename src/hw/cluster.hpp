// The simulated machine: compute nodes, network, shared burst buffer, and
// PFS devices, built from a ClusterParams description.
#pragma once

#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/hw/device_array.hpp"
#include "src/hw/network.hpp"
#include "src/hw/node.hpp"
#include "src/hw/params.hpp"
#include "src/sim/engine.hpp"

namespace uvs::hw {

class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterParams params);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return *engine_; }
  const ClusterParams& params() const { return params_; }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }

  Network& network() { return *network_; }
  /// The shared burst buffer and the PFS's OSTs.
  DeviceArray& burst_buffer() { return bb_; }
  DeviceArray& pfs() { return pfs_; }

  /// Deterministic per-cluster RNG (seeded from params.seed).
  Rng& rng() { return rng_; }

 private:
  sim::Engine* engine_;
  ClusterParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Network> network_;
  DeviceArray bb_;
  DeviceArray pfs_;
  Rng rng_;
};

}  // namespace uvs::hw
