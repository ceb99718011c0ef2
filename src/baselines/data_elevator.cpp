#include "src/baselines/data_elevator.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/rng.hpp"
#include "src/obs/legs.hpp"
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
  co_await engine.Delay(runtime_->cluster().burst_buffer().latency());
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
  double penalty = runtime_->cluster().params().bb.shared_file_lock_penalty;
  if (read) penalty *= 0.5;
  return 1.0 + penalty * std::log2(static_cast<double>(peers));
}

sim::Task DataElevator::BbAccess(vmpi::ProgramId program, int rank, FileInfo& info,
                                 Bytes offset, Bytes len, bool read, obs::SpanRef parent) {
  hw::Cluster& cluster = runtime_->cluster();
  hw::DeviceArray& bb = cluster.burst_buffer();
  const int node = runtime_->Rank(program, rank).node;
  obs::Legs legs(cluster.engine(), "baselines", obs::Track::Rank(node, program, rank), parent);
  int& active = read ? info.active_readers : info.active_writers;
  ++active;
  const double inflation = BbInflation(info, read);

  const int bb_nodes = bb.size();
  const int streams = std::min(kBbStreamsPerAccess, bb_nodes);
  const Bytes base = len / static_cast<Bytes>(streams);

  legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), len);
  legs.Pool(read ? "nic.rx" : "nic.tx", obs::Category::kNet,
            read ? cluster.node(node).nic_rx() : cluster.node(node).nic_tx(), len);
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
      legs.Add(read ? "bb.read" : "bb.write", obs::Category::kBb, bb.SoloTime(bb_node, piece),
               piece, bb.Access(bb_node, piece, inflation, parent));
    }
  }
  co_await legs.Join();
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
    const obs::Legs lustre(runtime_->engine(), "baselines",
                           obs::Track::Rank(node, program, rank), parent);
    co_await lustre.Tag("pfs.read.wait", obs::Category::kPfs, 0.0, len,
                        pfs_->Read(info.pfs_file, offset, len, node,
                                   {.layout = storage::AccessLayout::kSharedInterleaved,
                                    .parent = parent}));
  }
}

sim::Task DataElevator::ServerFlushShare(FileInfo& info, int server_idx, Bytes range_offset,
                                         Bytes bytes) {
  hw::Cluster& cluster = runtime_->cluster();
  sim::Engine& engine = cluster.engine();
  hw::DeviceArray& bb = cluster.burst_buffer();
  const int node = server_idx / kServersPerNode;
  const obs::Track track = obs::Track::Rank(node, server_program_, server_idx);
  const obs::SpanRef self = obs::NewSpanRef();
  obs::Legs legs(engine, "baselines", track, self);
  runtime_->SetRankBusy(server_program_, server_idx, true);
  obs::SpanTimer span(engine, "baselines", "de.flush.share", track, bytes, {.self = self});
  // Data Elevator is a staged copier: it reads a region from the BB, then
  // writes it to Lustre (no read/write pipelining, unlike UniviStor's
  // flush whose legs overlap).
  const int bb_node = server_idx % bb.size();
  legs.Add("bb.read", obs::Category::kBb, bb.SoloTime(bb_node, bytes), bytes,
           bb.Access(bb_node, bytes, 1.0, self));
  legs.Pool("nic.rx", obs::Category::kNet, cluster.node(node).nic_rx(), bytes);
  legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(server_program_, server_idx),
            bytes);
  co_await legs.Join();
  // Write to Lustre with the non-adaptive default striping.
  co_await legs.Tag("pfs.write.wait", obs::Category::kPfs, 0.0, bytes,
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

sim::Task DataElevator::WaitAllFlushes() {
  for (std::size_t f = 0; f < files_.size(); ++f)
    co_await WaitFlush(static_cast<storage::FileId>(f));
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
