#include "src/hw/cluster.hpp"

#include <algorithm>

namespace uvs::hw {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDram: return "DRAM";
    case Layer::kNodeLocalSsd: return "NodeSSD";
    case Layer::kSharedBurstBuffer: return "BB";
    case Layer::kPfs: return "PFS";
  }
  return "?";
}

ClusterParams CoriPreset(int procs, int procs_per_node) {
  ClusterParams params;
  params.nodes = std::max(1, (procs + procs_per_node - 1) / procs_per_node);
  // DataWarp grants BB server nodes proportionally to the job size, with a
  // small floor (the paper requests BB allocations per job, §III-A).
  params.bb.bb_nodes = std::clamp(params.nodes / 2, 2, 86);
  return params;
}

Cluster::Cluster(sim::Engine& engine, ClusterParams params)
    : engine_(&engine),
      params_(params),
      bb_(engine, params.bb),
      pfs_(engine, params.pfs),
      rng_(params.seed) {
  nodes_.reserve(static_cast<std::size_t>(params.nodes));
  for (int i = 0; i < params.nodes; ++i)
    nodes_.push_back(std::make_unique<Node>(engine, i, params.node));
  network_ = std::make_unique<Network>(*this, params.rpc_latency, params.node.nic_latency);
}

}  // namespace uvs::hw
