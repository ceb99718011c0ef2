// Inter-node network: hose model. A bulk transfer consumes the sender's NIC
// injection pool and the receiver's ejection pool concurrently and finishes
// when both legs complete; small messages (RPCs) cost latency only.
#pragma once

#include "src/common/units.hpp"
#include "src/hw/params.hpp"
#include "src/sim/task.hpp"

namespace uvs::hw {

class Cluster;

class Network {
 public:
  Network(Cluster& cluster, Time rpc_latency, Time nic_latency);

  /// Bulk data movement between nodes. Intra-node transfers are free at
  /// this level (they are charged to the DRAM pools by the caller).
  sim::Task Transfer(int src_node, int dst_node, Bytes bytes);

  /// Request/response pair with no payload to speak of.
  sim::Task RoundTrip(int src_node, int dst_node);

 private:
  Cluster* cluster_;
  Time rpc_latency_;
  Time nic_latency_;
};

}  // namespace uvs::hw
