// Replays of a traced run's recorded driver calls against fresh objects,
// through the layers' synchronous public APIs. Each replay isolates one
// layer's host cost from the rest of the simulation:
//  * placement/storage: UniviStor's per-file chain map, DhpWriterChain
//    construction and Append over fresh storage::LayerStores sized as in
//    the run;
//  * meta: the records those appends produce, inserted into a fresh
//    meta::DistributedMetadataService and per-node meta::RecordIndex
//    buffers, and every read's location-aware lookup (node buffer first,
//    then the service for what it does not cover);
//  * sim: a bare sim::Engine dispatching the run's event count at the
//    run's peak queue depth.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/trace_driver.hpp"
#include "src/common/units.hpp"
#include "src/hw/params.hpp"

namespace perfbench {

/// The run's storage geometry, read from the live system before teardown.
struct ReplayLayout {
  int nodes = 0;
  int servers = 0;
  uvs::Bytes dram_capacity = 0;  // per node
  uvs::Bytes bb_capacity = 0;    // whole burst buffer
  uvs::Bytes chunk_size = 0;
  uvs::Bytes range_size = 0;
  std::map<int, int> program_size;                  // program -> ranks
  std::map<std::pair<int, int>, int> ranks_on_node;  // (program, node) -> ranks
};

struct StorageReplay {
  double chain_s = 0;   // chain lookup/construction + Append
  double insert_s = 0;  // metadata inserts (service + node buffer)
  double query_s = 0;   // read-side metadata lookups
  double chain_mb = 0;  // heap held by stores and chains after the replay
  double meta_mb = 0;   // heap held by the service and node buffers
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t chains = 0;
  std::uint64_t records = 0;
  std::uint64_t max_partition_records = 0;
  std::array<uvs::Bytes, uvs::hw::kLayerCount> placed{};  // per hw::Layer
  uvs::Bytes queried_bytes = 0;  // bytes covered by the read lookups
};

StorageReplay ReplayStorage(const std::vector<DriverCall>& calls, const ReplayLayout& layout);

/// Dispatches exactly `events` events on a bare engine whose queue holds
/// `depth` pending events throughout; returns host seconds.
double ReplayKernel(std::uint64_t events, std::size_t depth);

}  // namespace perfbench
