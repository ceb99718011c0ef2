#include "src/baselines/data_elevator.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/rng.hpp"
#include "src/obs/recorder.hpp"
#include "src/placement/striping.hpp"
#include "src/sim/combinators.hpp"

namespace uvs::baselines {

namespace {
constexpr int kServersPerNode = 2;
/// HDF5 metadata requests per open, served by the central MDS.
constexpr int kMdOpsPerOpen = 4;
/// BB-node streams one rank's access fans out to.
constexpr int kBbStreamsPerAccess = 4;

sim::Task PoolLeg(sim::FairSharePool& pool, Bytes bytes) { co_await pool.Transfer(bytes); }
sim::Task BbLeg(hw::BurstBuffer& bb, int node, Bytes bytes, double inflation,
                obs::SpanRef parent = {}) {
  co_await bb.Access(node, bytes, inflation, parent);
}

/// Category-tagging leg wrapper (tracing on only); see univistor/system.cpp.
sim::Task TaggedLeg(sim::Engine& engine, const char* name, obs::Track track, Bytes bytes,
                    obs::SpanTag tag, sim::Task inner) {
  obs::SpanTimer span(engine, "baselines", name, track, bytes, tag);
  co_await std::move(inner);
}
}  // namespace

DataElevator::DataElevator(vmpi::Runtime& runtime, storage::Pfs& pfs)
    : runtime_(&runtime), pfs_(&pfs), mds_(std::make_unique<sim::Mutex>(runtime.engine())) {
  total_servers_ = runtime.cluster().node_count() * kServersPerNode;
  server_program_ = runtime.LaunchProgram("de-server", total_servers_, /*is_server=*/true);
  for (int s = 0; s < total_servers_; ++s) runtime.SetRankBusy(server_program_, s, false);
}

storage::FileId DataElevator::OpenOrCreate(const std::string& name) {
  if (auto it = names_.find(name); it != names_.end()) return it->second;
  const auto fid = static_cast<storage::FileId>(files_.size());
  names_.emplace(name, fid);
  auto info = std::make_unique<FileInfo>();
  info->name = name;
  files_.push_back(std::move(info));
  return fid;
}

DataElevator::FileInfo& DataElevator::Info(storage::FileId fid) {
  return *files_.at(static_cast<std::size_t>(fid));
}

sim::Task DataElevator::OpenMetadata(vmpi::ProgramId program, int rank, obs::SpanRef parent) {
  sim::Engine& engine = runtime_->engine();
  const obs::Track track =
      obs::Track::Rank(runtime_->Rank(program, rank).node, program, rank);
  const Time start = engine.Now();
  co_await engine.Delay(runtime_->cluster().burst_buffer().params().latency);
  const Time queued = engine.Now();
  auto guard = co_await mds_->Lock();
  const Time serviced = engine.Now();
  co_await engine.Delay(static_cast<double>(kMdOpsPerOpen) *
                        runtime_->cluster().params().rpc_service_time);
  if (obs::Recorder* r = obs::Recorder::Current()) {
    r->AddSpanTagged("baselines", "de.md.latency", track, start, queued, obs::kNoBytes,
                     {.cat = obs::Category::kNet, .parent = parent});
    if (serviced > queued) {
      r->AddSpanTagged("baselines", "de.md.queue", track, queued, serviced, obs::kNoBytes,
                       {.cat = obs::Category::kQueue, .parent = parent});
    }
    r->AddSpanTagged("baselines", "de.md.service", track, serviced, engine.Now(),
                     obs::kNoBytes, {.cat = obs::Category::kMeta, .parent = parent});
  }
}

double DataElevator::BbInflation(const FileInfo& info, bool read) const {
  const int peers = read ? info.active_readers : info.active_writers;
  if (peers <= 1) return 1.0;
  double penalty = runtime_->cluster().burst_buffer().params().shared_file_lock_penalty;
  if (read) penalty *= 0.5;
  return 1.0 + penalty * std::log2(static_cast<double>(peers));
}

sim::Task DataElevator::BbAccess(vmpi::ProgramId program, int rank, FileInfo& info,
                                 Bytes offset, Bytes len, bool read, obs::SpanRef parent) {
  hw::Cluster& cluster = runtime_->cluster();
  sim::Engine& engine = cluster.engine();
  const int node = runtime_->Rank(program, rank).node;
  const bool traced = obs::Enabled();
  const obs::Track track = obs::Track::Rank(node, program, rank);
  auto leg = [&](const char* name, obs::Category cat, Time ideal, Bytes bytes,
                 sim::Task inner) {
    return traced ? TaggedLeg(engine, name, track, bytes,
                              {.cat = cat, .parent = parent, .ideal = ideal},
                              std::move(inner))
                  : std::move(inner);
  };
  int& active = read ? info.active_readers : info.active_writers;
  ++active;
  const double inflation = BbInflation(info, read);

  const int bb_nodes = cluster.burst_buffer().node_count();
  const int streams = std::min(kBbStreamsPerAccess, bb_nodes);
  const Bytes base = len / static_cast<Bytes>(streams);

  std::vector<sim::Task> legs;
  legs.push_back(leg("cpu.copy", obs::Category::kNet,
                     runtime_->RankCpu(program, rank).SoloTime(len), len,
                     PoolLeg(runtime_->RankCpu(program, rank), len)));
  auto& nic = read ? cluster.node(node).nic_rx() : cluster.node(node).nic_tx();
  legs.push_back(leg(read ? "nic.rx" : "nic.tx", obs::Category::kNet, nic.SoloTime(len), len,
                     PoolLeg(nic, len)));
  // DataWarp stripes the shared file across BB nodes; the rank's range
  // maps onto `streams` of them. Mix the stripe index so power-of-two
  // offsets do not all alias onto the same BB nodes.
  std::uint64_t mix = offset / 8_MiB;
  mix = SplitMix64(mix);
  const int first = static_cast<int>(mix % static_cast<std::uint64_t>(bb_nodes));
  for (int s = 0; s < streams; ++s) {
    const Bytes piece = s + 1 == streams ? len - base * static_cast<Bytes>(streams - 1) : base;
    const int bb_node = (first + s) % bb_nodes;
    if (piece > 0) {
      legs.push_back(leg(read ? "bb.read" : "bb.write", obs::Category::kBb,
                         cluster.burst_buffer().params().latency +
                             cluster.burst_buffer().pool(bb_node).SoloTime(piece),
                         piece, BbLeg(cluster.burst_buffer(), bb_node, piece, inflation,
                                      parent)));
    }
  }
  co_await sim::WhenAll(engine, std::move(legs));
  --active;
}

sim::Task DataElevator::Write(vmpi::ProgramId program, int rank, storage::FileId fid,
                              Bytes offset, Bytes len, obs::SpanRef parent) {
  FileInfo& info = Info(fid);
  info.cached_bytes += len;
  co_await BbAccess(program, rank, info, offset, len, /*read=*/false, parent);
}

sim::Task DataElevator::Read(vmpi::ProgramId program, int rank, storage::FileId fid,
                             Bytes offset, Bytes len, obs::SpanRef parent) {
  FileInfo& info = Info(fid);
  if (info.cached_bytes > 0) {
    co_await BbAccess(program, rank, info, offset, len, /*read=*/true, parent);
  } else {
    // Not cached: fall through to Lustre.
    if (info.pfs_file < 0) co_return;
    const int node = runtime_->Rank(program, rank).node;
    if (obs::Enabled()) {
      co_await TaggedLeg(runtime_->engine(), "pfs.read.wait",
                         obs::Track::Rank(node, program, rank), len,
                         {.cat = obs::Category::kPfs, .parent = parent},
                         pfs_->Read(info.pfs_file, offset, len, node,
                                    {.layout = storage::AccessLayout::kSharedInterleaved,
                                     .parent = parent}));
    } else {
      co_await pfs_->Read(info.pfs_file, offset, len, node,
                          {.layout = storage::AccessLayout::kSharedInterleaved});
    }
  }
}

sim::Task DataElevator::ServerFlushShare(FileInfo& info, int server_idx, Bytes range_offset,
                                         Bytes bytes) {
  hw::Cluster& cluster = runtime_->cluster();
  sim::Engine& engine = cluster.engine();
  const int node = server_idx / kServersPerNode;
  const bool traced = obs::Enabled();
  const obs::Track track = obs::Track::Rank(node, server_program_, server_idx);
  const obs::SpanRef self = obs::NewSpanRef();
  auto leg = [&](const char* name, obs::Category cat, Time ideal, sim::Task inner) {
    return traced ? TaggedLeg(engine, name, track, bytes,
                              {.cat = cat, .parent = self, .ideal = ideal}, std::move(inner))
                  : std::move(inner);
  };
  runtime_->SetRankBusy(server_program_, server_idx, true);
  obs::SpanTimer span(engine, "baselines", "de.flush.share", track, bytes, {.self = self});
  // Data Elevator is a staged copier: it reads a region from the BB, then
  // writes it to Lustre (no read/write pipelining, unlike UniviStor's
  // flush whose legs overlap).
  const int bb_node = server_idx % cluster.burst_buffer().node_count();
  std::vector<sim::Task> read_legs;
  read_legs.push_back(leg("bb.read", obs::Category::kBb,
                          cluster.burst_buffer().params().latency +
                              cluster.burst_buffer().pool(bb_node).SoloTime(bytes),
                          BbLeg(cluster.burst_buffer(), bb_node, bytes, 1.0, self)));
  read_legs.push_back(leg("nic.rx", obs::Category::kNet,
                          cluster.node(node).nic_rx().SoloTime(bytes),
                          PoolLeg(cluster.node(node).nic_rx(), bytes)));
  read_legs.push_back(leg("cpu.copy", obs::Category::kNet,
                          runtime_->RankCpu(server_program_, server_idx).SoloTime(bytes),
                          PoolLeg(runtime_->RankCpu(server_program_, server_idx), bytes)));
  co_await sim::WhenAll(engine, std::move(read_legs));
  // Write to Lustre with the non-adaptive default striping.
  co_await leg("pfs.write.wait", obs::Category::kPfs, 0.0,
               pfs_->Write(info.pfs_file, range_offset, bytes, node,
                           {.layout = storage::AccessLayout::kAlignedRanges,
                            .coordinated = false,
                            .parent = self}));
  runtime_->SetRankBusy(server_program_, server_idx, false);
}

sim::Task DataElevator::FlushTask(storage::FileId fid) {
  FileInfo& info = Info(fid);
  const Time start = runtime_->engine().Now();
  const Bytes total = info.cached_bytes;
  if (total == 0) {
    info.flush_in_flight = false;
    co_return;
  }
  if (info.pfs_file < 0) {
    info.pfs_file =
        pfs_->Create(info.name, storage::StripeConfig{.stripe_size = 1_MiB,
                                                      .stripe_count = pfs_->ost_count()});
  }
  const auto plan =
      placement::PlanDefaultStriping(total, total_servers_, pfs_->ost_count());
  std::vector<sim::Task> shares;
  Bytes range_offset = 0;
  for (int s = 0; s < total_servers_; ++s) {
    const Bytes share = plan.RangeBytesFor(s, total);
    shares.push_back(ServerFlushShare(info, s, range_offset, share));
    range_offset += share;
  }
  co_await sim::WhenAll(runtime_->engine(), std::move(shares));
  flush_stats_.flushes += 1;
  flush_stats_.bytes_flushed += total;
  flush_stats_.last_flush_duration = runtime_->engine().Now() - start;
  info.flush_in_flight = false;
}

void DataElevator::TriggerFlush(storage::FileId fid) {
  FileInfo& info = Info(fid);
  if (info.flush_in_flight) return;
  info.flush_in_flight = true;
  info.flush_process = runtime_->engine().Spawn(FlushTask(fid), "de-flush:" + info.name);
}

sim::Task DataElevator::WaitFlush(storage::FileId fid) {
  FileInfo& info = Info(fid);
  if (info.flush_process.valid() && !info.flush_process.finished())
    co_await info.flush_process.Done().Wait();
}

// --- Driver face. ---

DataElevatorDriver::State& DataElevatorDriver::StateOf(vmpi::File& file) {
  if (auto* state = file.driver_state<State>()) return *state;
  auto& state = file.EmplaceDriverState<State>();
  state.fid = system_->OpenOrCreate(file.options().name);
  return state;
}

sim::Task DataElevatorDriver::Open(vmpi::File& file, int rank, obs::SpanRef op) {
  StateOf(file);
  co_await system_->OpenMetadata(file.program(), rank, op);
}

sim::Task DataElevatorDriver::WriteAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                                      obs::SpanRef op) {
  return system_->Write(file.program(), rank, StateOf(file).fid, offset, len, op);
}

sim::Task DataElevatorDriver::ReadAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                                     obs::SpanRef op) {
  return system_->Read(file.program(), rank, StateOf(file).fid, offset, len, op);
}

sim::Task DataElevatorDriver::Close(vmpi::File& file, int rank, obs::SpanRef op) {
  State& state = StateOf(file);
  ++state.closes;
  co_await system_->OpenMetadata(file.program(), rank, op);  // close-time metadata
  if (state.closes == file.comm().size() &&
      file.options().mode == vmpi::FileMode::kWriteOnly) {
    system_->TriggerFlush(state.fid);
  }
}

sim::Task DataElevatorDriver::WaitFlush(vmpi::File& file) {
  return system_->WaitFlush(StateOf(file).fid);
}

}  // namespace uvs::baselines
