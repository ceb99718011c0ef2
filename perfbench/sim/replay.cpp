#include "sim/replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/alloc_counter.hpp"
#include "src/meta/record_index.hpp"
#include "src/meta/service.hpp"
#include "src/placement/dhp.hpp"
#include "src/sim/engine.hpp"
#include "src/storage/layer_store.hpp"
#include "src/univistor/system.hpp"

namespace perfbench {

using uvs::Bytes;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Accumulates host time and heap growth of one replayed layer. Phases of
/// different layers alternate call by call; each phase only allocates and
/// frees its own layer's objects, so the deltas attribute cleanly.
class Phase {
 public:
  void Begin() {
    live_ = alloc::LiveBytes();
    start_ = Clock::now();
  }
  void End() {
    seconds_ += std::chrono::duration<double>(Clock::now() - start_).count();
    held_ += alloc::LiveBytes() - live_;
  }
  double seconds() const { return seconds_; }
  double mib() const { return static_cast<double>(held_) / kMiB; }

 private:
  Clock::time_point start_;
  std::int64_t live_ = 0;
  double seconds_ = 0;
  std::int64_t held_ = 0;
};

int Lookup(const std::map<std::pair<int, int>, int>& table, int program, int node) {
  auto it = table.find({program, node});
  return it != table.end() ? it->second : 0;
}

uvs::sim::Task Ticker(uvs::sim::Engine& engine, std::uint64_t hops, uvs::Time step) {
  for (std::uint64_t i = 0; i < hops; ++i) co_await engine.Delay(step);
}

}  // namespace

StorageReplay ReplayStorage(const std::vector<DriverCall>& calls, const ReplayLayout& layout) {
  namespace meta = uvs::meta;
  namespace placement = uvs::placement;
  namespace storage = uvs::storage;

  StorageReplay out;
  Phase chain_phase;
  Phase insert_phase;
  Phase query_phase;
  alloc::TrackLive(true);
  {
    std::vector<placement::Placement> placed;
    placed.reserve(256);
    std::vector<std::pair<Bytes, Bytes>> uncovered;
    uncovered.reserve(256);

    chain_phase.Begin();
    std::vector<std::unique_ptr<storage::LayerStore>> dram;
    for (int n = 0; n < layout.nodes; ++n)
      dram.push_back(std::make_unique<storage::LayerStore>(
          uvs::hw::Layer::kDram, layout.dram_capacity, layout.chunk_size));
    auto bb = std::make_unique<storage::LayerStore>(uvs::hw::Layer::kSharedBurstBuffer,
                                                    layout.bb_capacity, layout.chunk_size);
    // One producer -> chain map per file, as UniviStor::Chain keeps them.
    std::vector<std::map<std::int64_t, std::unique_ptr<placement::DhpWriterChain>>> chains;
    chain_phase.End();

    insert_phase.Begin();
    meta::DistributedMetadataService service(layout.servers, layout.range_size);
    std::vector<meta::RecordIndex> node_buffer(static_cast<std::size_t>(layout.nodes));
    insert_phase.End();

    for (const DriverCall& call : calls) {
      const auto fid = static_cast<storage::FileId>(call.file);
      if (call.verb == Verb::kWrite) {
        ++out.writes;
        const std::int64_t producer = uvs::univistor::MakeProducer(call.program, call.rank);
        chain_phase.Begin();
        if (chains.size() <= fid) chains.resize(fid + 1);
        auto& slot = chains[fid][producer];
        if (slot == nullptr) {
          storage::LayerStore& node_dram = *dram.at(static_cast<std::size_t>(call.node));
          const int local = std::max(1, Lookup(layout.ranks_on_node, call.program, call.node));
          const int sharers = std::max(1, layout.program_size.at(call.program));
          slot = std::make_unique<placement::DhpWriterChain>(
              storage::LogKey{fid, producer},
              std::vector<storage::LayerStore*>{&node_dram, bb.get()},
              std::vector<Bytes>{placement::DefaultLogCapacity(node_dram.capacity(), local),
                                 placement::DefaultLogCapacity(bb->capacity(), sharers)});
          ++out.chains;
        }
        {
          const std::vector<placement::Placement> pieces = slot->Append(call.len);
          placed.assign(pieces.begin(), pieces.end());
        }
        chain_phase.End();

        insert_phase.Begin();
        Bytes cursor = call.offset;
        for (const placement::Placement& piece : placed) {
          const meta::MetadataRecord record{fid, cursor, piece.extent.len, producer, piece.va};
          (void)service.Insert(record);
          node_buffer[static_cast<std::size_t>(call.node)].Insert(record);
          cursor += piece.extent.len;
        }
        insert_phase.End();
        for (const placement::Placement& piece : placed)
          out.placed[static_cast<std::size_t>(piece.layer)] += piece.extent.len;
      } else if (call.verb == Verb::kRead) {
        ++out.reads;
        query_phase.Begin();
        uncovered.clear();
        Bytes cursor = call.offset;
        const Bytes end = call.offset + call.len;
        for (const meta::MetadataRecord& hit :
             node_buffer[static_cast<std::size_t>(call.node)].Query(fid, call.offset,
                                                                     call.len)) {
          if (hit.offset > cursor) uncovered.emplace_back(cursor, hit.offset - cursor);
          out.queried_bytes += hit.len;
          cursor = hit.end();
        }
        if (cursor < end) uncovered.emplace_back(cursor, end - cursor);
        for (const auto& [piece_offset, piece_len] : uncovered) {
          (void)service.partitioner().ServersFor(piece_offset, piece_len);
          for (const meta::MetadataRecord& record : service.Query(fid, piece_offset, piece_len))
            out.queried_bytes += record.len;
        }
        query_phase.End();
      }
    }

    out.records = service.TotalRecords();
    for (int s = 0; s < service.server_count(); ++s)
      out.max_partition_records =
          std::max<std::uint64_t>(out.max_partition_records, service.RecordCount(s));
  }
  alloc::TrackLive(false);
  out.chain_s = chain_phase.seconds();
  out.chain_mb = chain_phase.mib();
  out.insert_s = insert_phase.seconds();
  out.meta_mb = insert_phase.mib();
  out.query_s = query_phase.seconds();
  return out;
}

double ReplayKernel(std::uint64_t events, std::size_t depth) {
  const auto start = Clock::now();
  uvs::sim::Engine engine;
  // Every spawn dispatches one start event and every Delay one resume, so
  // `procs` tickers with `hops` delays in total dispatch procs + hops.
  const std::uint64_t procs =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(depth, events));
  const std::uint64_t hops = events > procs ? events - procs : 0;
  for (std::uint64_t i = 0; i < procs; ++i) {
    // Distinct periods keep the queue order changing, as in a real run.
    const uvs::Time step = 1.0 + static_cast<double>(i % 97) * 1e-3;
    engine.Spawn(Ticker(engine, hops / procs + (i < hops % procs ? 1 : 0), step));
  }
  engine.Run();
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (engine.processed_events() != std::max(events, procs))
    throw std::runtime_error("kernel replay dispatched " +
                             std::to_string(engine.processed_events()) + " events, wanted " +
                             std::to_string(events));
  return seconds;
}

}  // namespace perfbench
