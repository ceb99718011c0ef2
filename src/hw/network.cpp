#include "src/hw/network.hpp"

#include <vector>

#include "src/hw/cluster.hpp"
#include "src/sim/combinators.hpp"

namespace uvs::hw {

Network::Network(Cluster& cluster, Time rpc_latency, Time nic_latency)
    : cluster_(&cluster), rpc_latency_(rpc_latency), nic_latency_(nic_latency) {}

sim::Task Network::Transfer(int src_node, int dst_node, Bytes bytes) {
  sim::Engine& engine = cluster_->engine();
  if (src_node == dst_node || bytes == 0) co_return;
  co_await engine.Delay(nic_latency_);
  std::vector<sim::Task> legs;
  legs.push_back(sim::Transfer(cluster_->node(src_node).nic_tx(), bytes));
  legs.push_back(sim::Transfer(cluster_->node(dst_node).nic_rx(), bytes));
  co_await sim::WhenAll(engine, std::move(legs));
}

sim::Task Network::RoundTrip(int src_node, int dst_node) {
  sim::Engine& engine = cluster_->engine();
  if (src_node != dst_node) co_await engine.Delay(2 * rpc_latency_);
}

}  // namespace uvs::hw
