#include "src/univistor/system.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <type_traits>

#include "src/fault/injector.hpp"
#include "src/fault/retry.hpp"
#include "src/obs/legs.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sampler.hpp"
#include "src/sim/combinators.hpp"

namespace uvs::univistor {

namespace {

/// HDF5-level metadata requests per open/close; each rank pays them
/// without COC, only the root with COC.
constexpr int kMdOpsPerOpen = 4;

/// The program's entry in the program-sorted `producers`: the first one
/// whose id is not below `program`.
template <typename Table>
auto LowerProgram(Table& producers, vmpi::ProgramId program) {
  return std::lower_bound(producers.begin(), producers.end(), program,
                          [](const auto& slots, vmpi::ProgramId id) { return slots.program < id; });
}

/// The slot of `producer` in `info`'s table, or nullptr.
template <typename Info>
auto* SlotOf(Info& info, ProducerId producer) {
  const auto it = LowerProgram(info.producers, ProducerProgram(producer));
  const int rank = ProducerRank(producer);
  using Slot = std::remove_reference_t<decltype(it->ranks.front())>;
  if (it == info.producers.end() || it->program != ProducerProgram(producer) || rank < 0 ||
      static_cast<std::size_t>(rank) >= it->ranks.size())
    return static_cast<Slot*>(nullptr);
  return &it->ranks[static_cast<std::size_t>(rank)];
}

/// Calls fn(producer, slot) for every slot of `info` that holds a chain,
/// in (program, rank) order: the order of the producer ids.
template <typename Info, typename Fn>
void ForEachChain(Info& info, Fn&& fn) {
  for (auto& program : info.producers)
    for (std::size_t rank = 0; rank < program.ranks.size(); ++rank)
      if (program.ranks[rank].chain)
        fn(MakeProducer(program.program, static_cast<int>(rank)), program.ranks[rank]);
}

}  // namespace

UniviStor::UniviStor(vmpi::Runtime& runtime, storage::Pfs& pfs,
                     workflow::WorkflowManager& workflow, Config config)
    : runtime_(&runtime), pfs_(&pfs), workflow_(&workflow), config_(config) {
  hw::Cluster& cluster = runtime.cluster();
  const int nodes = cluster.node_count();
  total_servers_ = nodes * config_.servers_per_node;

  // Launch the server program across all compute nodes; servers idle
  // between flushes (§II-C's state-aware scheduling relies on this).
  server_program_ = runtime.LaunchProgram("univistor-server", total_servers_,
                                          /*is_server=*/true);
  for (int s = 0; s < total_servers_; ++s) runtime.SetRankBusy(server_program_, s, false);

  nodes_.resize(static_cast<std::size_t>(nodes));
  const Bytes bb_capacity =
      config_.bb_capacity_limit > 0
          ? std::min(config_.bb_capacity_limit, cluster.burst_buffer().total_capacity())
          : cluster.burst_buffer().total_capacity();
  bb_store_ = std::make_unique<storage::LayerStore>(hw::Layer::kSharedBurstBuffer,
                                                    bb_capacity, config_.chunk_size);

  metadata_ = std::make_unique<meta::DistributedMetadataService>(total_servers_,
                                                                 config_.metadata_range_size);
  for (int s = 0; s < total_servers_; ++s) md_queue_.emplace_back(cluster.engine());
  md_load_.resize(static_cast<std::size_t>(total_servers_));

  // Dedicated stream for retry-backoff jitter so recovery draws never
  // perturb the cluster's placement RNG.
  retry_rng_ = Rng(cluster.params().seed ^ 0xfa017b0ffull);
}

UniviStor::~UniviStor() = default;

UniviStor::NodeState::NodeState(const hw::ClusterParams& params, const Config& config)
    : dram(hw::Layer::kDram, params.node.dram_cache_capacity, config.chunk_size),
      read_cache(hw::Layer::kDram, config.read_cache_capacity_per_node, config.chunk_size) {
  if (params.node.has_local_ssd)
    ssd.emplace(hw::Layer::kNodeLocalSsd, params.node.ssd_capacity, config.chunk_size);
}

UniviStor::NodeState& UniviStor::Node(int node) {
  std::unique_ptr<NodeState>& state = nodes_[static_cast<std::size_t>(node)];
  if (state == nullptr) state = std::make_unique<NodeState>(runtime_->cluster().params(), config_);
  return *state;
}

std::vector<meta::MetadataRecord> UniviStor::BufferedRecords(int node, storage::FileId fid,
                                                             Bytes offset, Bytes len) const {
  const NodeState* state = nodes_[static_cast<std::size_t>(node)].get();
  return state != nullptr ? state->md_buffer.Query(fid, offset, len)
                          : std::vector<meta::MetadataRecord>{};
}

std::vector<meta::MetadataRecord> UniviStor::CachedRecords(int node, storage::FileId fid,
                                                           Bytes offset, Bytes len) const {
  const NodeState* state = nodes_[static_cast<std::size_t>(node)].get();
  return state != nullptr ? state->read_cache_index.Query(fid, offset, len)
                          : std::vector<meta::MetadataRecord>{};
}

storage::FileId UniviStor::OpenOrCreate(const std::string& name) {
  if (auto it = names_.find(name); it != names_.end()) return it->second;
  const auto fid = static_cast<storage::FileId>(files_.size());
  names_.emplace(name, fid);
  auto info = std::make_unique<FileInfo>();
  info->name = name;
  files_.push_back(std::move(info));
  return fid;
}

UniviStor::FileInfo& UniviStor::Info(storage::FileId fid) {
  return *files_.at(static_cast<std::size_t>(fid));
}

const UniviStor::FileInfo* UniviStor::FindInfo(storage::FileId fid) const {
  return fid < files_.size() ? files_[static_cast<std::size_t>(fid)].get() : nullptr;
}

Bytes UniviStor::LogicalSize(storage::FileId fid) const {
  const FileInfo* info = FindInfo(fid);
  return info != nullptr ? info->logical_size : 0;
}

const std::string& UniviStor::FileName(storage::FileId fid) const {
  static const std::string kEmpty;
  const FileInfo* info = FindInfo(fid);
  return info != nullptr ? info->name : kEmpty;
}

Bytes UniviStor::BytesWritten(storage::FileId fid) const {
  const FileInfo* info = FindInfo(fid);
  return info != nullptr ? info->bytes_written : 0;
}

const UniviStor::ProducerSlot* UniviStor::FindSlot(storage::FileId fid,
                                                   ProducerId producer) const {
  const FileInfo* info = FindInfo(fid);
  return info != nullptr ? SlotOf(*info, producer) : nullptr;
}

const placement::DhpWriterChain* UniviStor::FindChain(storage::FileId fid,
                                                      ProducerId producer) const {
  const ProducerSlot* slot = FindSlot(fid, producer);
  return slot != nullptr && slot->chain ? &*slot->chain : nullptr;
}

bool UniviStor::HasPfsCopy(storage::FileId fid) const {
  const FileInfo* info = FindInfo(fid);
  return info != nullptr && info->pfs_file >= 0;
}

placement::DhpWriterChain& UniviStor::Chain(FileInfo& info, vmpi::ProgramId program,
                                            int rank) {
  auto it = LowerProgram(info.producers, program);
  if (it == info.producers.end() || it->program != program) {
    std::vector<ProducerSlot> ranks(
        static_cast<std::size_t>(std::max(1, runtime_->ProgramSize(program))));
    it = info.producers.insert(it, ProgramSlots{program, std::move(ranks)});
  }
  ProducerSlot& slot = it->ranks.at(static_cast<std::size_t>(rank));
  if (slot.chain) return *slot.chain;

  const ProducerId producer = MakeProducer(program, rank);
  const int node = runtime_->Rank(program, rank).node;
  const int program_size = runtime_->ProgramSize(program);
  // Count the program's actual ranks on this node: cluster-scheduler
  // allocations place programs on node subsets, where the old block-map
  // arithmetic over all nodes under-counted co-located writers.
  const int local_clients = std::max(1, runtime_->RanksOnNode(program, node));

  std::vector<storage::LayerStore*> stores;
  std::vector<Bytes> requested;
  if (config_.first_cache_layer == hw::Layer::kDram) {
    NodeState& local = Node(node);
    stores.push_back(&local.dram);
    requested.push_back(placement::DefaultLogCapacity(local.dram.capacity(), local_clients));
    if (local.ssd) {
      stores.push_back(&*local.ssd);
      requested.push_back(placement::DefaultLogCapacity(local.ssd->capacity(), local_clients));
    }
  }
  if (config_.first_cache_layer == hw::Layer::kDram ||
      config_.first_cache_layer == hw::Layer::kSharedBurstBuffer) {
    stores.push_back(bb_store_.get());
    requested.push_back(
        placement::DefaultLogCapacity(bb_store_->capacity(), std::max(1, program_size)));
  }
  // first_cache_layer == kPfs: no cache layers, everything spills to disk.

  return slot.chain.emplace(storage::LogKey{OpenOrCreate(info.name), producer},
                            std::move(stores), requested);
}

sim::Task UniviStor::MetadataRpc(int client_node, int server_idx, int ops,
                                 obs::Track rank_track, obs::SpanRef parent) {
  hw::Cluster& cluster = runtime_->cluster();
  sim::Engine& engine = cluster.engine();
  const int server_node = ServerNode(server_idx);
  const Time start = engine.Now();
  obs::Count("meta.rpc.calls");
  obs::Count("meta.rpc.ops", static_cast<std::uint64_t>(ops));
  co_await cluster.network().RoundTrip(client_node, server_node);
  const Time queued = engine.Now();
  auto guard = co_await md_queue_[static_cast<std::size_t>(server_idx)].Lock();
  // One record for the whole RPC: the server's serialized service section
  // (so spans on one server's lane never overlap), and on the rank's lane
  // the network round trip, the wait in the server's queue and the service.
  obs::MetadataRpcTimer rpc(engine, obs::Track::MetaServer(server_node, server_program_,
                                                           server_idx),
                            parent);
  co_await engine.Delay(static_cast<double>(ops) * cluster.params().rpc_service_time);
  // The server's USE counters: busy is its service time, saturation the
  // time its clients spent queued (overlapping waits add up). No named
  // local: every local of a coroutine lives in its heap frame.
  md_load_[static_cast<std::size_t>(server_idx)].service += engine.Now() - rpc.serviced();
  md_load_[static_cast<std::size_t>(server_idx)].wait += rpc.serviced() - queued;
  rpc.Complete(rank_track, start, queued);
  obs::Observe("meta.rpc.latency", engine.Now() - start);
}

sim::Task UniviStor::OpenMetadata(vmpi::ProgramId program, int rank, storage::FileId fid,
                                  obs::SpanRef parent) {
  const int server = static_cast<int>(std::hash<storage::FileId>{}(fid) %
                                      static_cast<std::size_t>(total_servers_));
  const int node = runtime_->Rank(program, rank).node;
  const obs::Track track = obs::Track::Rank(node, program, rank);
  if (config_.collective_open_close) {
    // Root-only metadata operation; the driver broadcasts the result.
    if (rank == 0) co_await MetadataRpc(node, server, kMdOpsPerOpen, track, parent);
  } else {
    co_await MetadataRpc(node, server, kMdOpsPerOpen, track, parent);
  }
}

sim::Task UniviStor::CloseMetadata(vmpi::ProgramId program, int rank, storage::FileId fid,
                                   obs::SpanRef parent) {
  return OpenMetadata(program, rank, fid, parent);  // same traffic pattern
}

int UniviStor::BbNodeOf(ProducerId producer) const {
  const int bb_nodes = runtime_->cluster().burst_buffer().size();
  return static_cast<int>(static_cast<std::uint64_t>(producer) * 0x9e3779b97f4a7c15ull %
                          static_cast<std::uint64_t>(bb_nodes));
}

storage::Pfs::FileHandle UniviStor::PfsDestination(FileInfo& info) {
  if (info.pfs_file < 0) {
    storage::StripeConfig stripe{.stripe_size = 1_MiB, .stripe_count = pfs_->ost_count()};
    if (config_.ec.enabled) {
      // Erasure-coded destination: k data shards wide instead of all-OST
      // striping; the Pfs clamps k+m to the available failure domains.
      stripe.stripe_count = config_.ec.data_shards;
      stripe.parity_shards = config_.ec.parity_shards;
    }
    info.pfs_file = pfs_->Create(info.name, stripe);
  }
  return info.pfs_file;
}

sim::Task UniviStor::ChargeWrite(vmpi::ProgramId program, int rank, FileInfo& info,
                                 placement::Placement placement, Bytes logical_offset,
                                 obs::SpanRef parent) {
  hw::Cluster& cluster = runtime_->cluster();
  const int node = runtime_->Rank(program, rank).node;
  const Bytes len = placement.extent.len;
  obs::Legs legs(cluster.engine(), "univistor", obs::Track::Rank(node, program, rank), parent);
  legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), len);
  switch (placement.layer) {
    case hw::Layer::kDram:
      legs.Pool("dram.write", obs::Category::kDram, runtime_->RankDram(program, rank), len);
      break;
    case hw::Layer::kNodeLocalSsd:
      legs.Pool("ssd.write", obs::Category::kDram, cluster.node(node).local_ssd(), len);
      break;
    case hw::Layer::kSharedBurstBuffer: {
      hw::DeviceArray& bb = cluster.burst_buffer();
      const int bb_node = BbNodeOf(MakeProducer(program, rank));
      legs.Pool("nic.tx", obs::Category::kNet, cluster.node(node).nic_tx(), len);
      legs.Add("bb.write", obs::Category::kBb, bb.SoloTime(bb_node, len), len,
               bb.Access(bb_node, len, 1.0, parent));
      break;
    }
    case hw::Layer::kPfs: {
      // Spill tail / UniviStor-on-Disk: the bytes go straight into the
      // shared destination file on the PFS, paying the shared-file costs
      // the cache layers exist to avoid.
      legs.Add("pfs.spill", obs::Category::kPfs, 0.0, len,
               pfs_->Write(PfsDestination(info), logical_offset, len, node,
                           {.layout = storage::AccessLayout::kSharedInterleaved,
                            .parent = parent}));
      break;
    }
  }
  co_await legs.Join();
}

sim::Task UniviStor::Write(vmpi::ProgramId program, int rank, storage::FileId fid,
                           Bytes offset, Bytes len, obs::SpanRef parent) {
  FileInfo& info = Info(fid);
  placement::DhpWriterChain& chain = Chain(info, program, rank);
  const int node = runtime_->Rank(program, rank).node;
  const ProducerId producer = MakeProducer(program, rank);

  const auto placements = chain.Append(len);

  // Metadata records follow the data pieces through the logical range.
  // The servers to notify, in first-touch order: the first piece's answer,
  // then any server a later piece adds.
  std::vector<int> touched;
  Bytes cursor = offset;
  for (const auto& placement : placements) {
    const meta::MetadataRecord record{fid, cursor, placement.extent.len, producer,
                                      placement.va};
    std::vector<int> servers = metadata_->Insert(record);
    if (touched.empty()) {
      touched = std::move(servers);
    } else {
      for (int server : servers)
        if (std::find(touched.begin(), touched.end(), server) == touched.end())
          touched.push_back(server);
    }
    Node(node).md_buffer.Insert(record);
    cursor += placement.extent.len;
  }
  // A zero-length write extends nothing, as on the PFS.
  if (len > 0) info.logical_size = std::max(info.logical_size, offset + len);
  info.bytes_written += len;

  // Data movement and the piggybacked metadata RPCs.
  std::vector<sim::Task> legs;
  Bytes leg_cursor = offset;
  for (const auto& placement : placements) {
    legs.push_back(ChargeWrite(program, rank, info, placement, leg_cursor, parent));
    leg_cursor += placement.extent.len;
  }
  co_await sim::WhenAll(runtime_->engine(), std::move(legs));
  const obs::Track track = obs::Track::Rank(node, program, rank);
  for (int server : touched) co_await MetadataRpc(node, server, 1, track, parent);

  // Resilience extension: replicate volatile-layer data to the BB in the
  // background (the client does not wait for it) — unless safe mode is
  // active, in which case the ack waits for the replica copy.
  if (config_.replicate_volatile) {
    for (const auto& placement : placements) {
      if (placement.layer == hw::Layer::kDram ||
          placement.layer == hw::Layer::kNodeLocalSsd) {
        replication_backlog_ += placement.extent.len;
        const bool safe_mode = config_.recovery.enabled &&
                               config_.recovery.safe_mode_dirty_limit > 0 &&
                               replication_backlog_ > config_.recovery.safe_mode_dirty_limit;
        if (safe_mode) {
          safe_mode_bytes_ += placement.extent.len;
          obs::Count("fault.safe_mode_bytes", placement.extent.len);
          // Safe mode: the write ack waits for the replica copy; account
          // the stall as BB transfer time on the issuing rank.
          const obs::Legs ack(runtime_->engine(), "univistor", track, parent);
          co_await ack.Tag("replica.wait", obs::Category::kBb, 0.0, placement.extent.len,
                           ReplicateTask(node, fid, producer, placement.layer,
                                         placement.extent.addr, placement.extent.len));
        } else {
          runtime_->engine().Spawn(ReplicateTask(node, fid, producer, placement.layer,
                                                 placement.extent.addr, placement.extent.len),
                                   "replicate");
        }
      }
    }
  }
}

sim::Task UniviStor::ReplicateTask(int node, storage::FileId fid, ProducerId producer,
                                   hw::Layer layer, Bytes physical, Bytes len) {
  hw::Cluster& cluster = runtime_->cluster();
  std::vector<sim::Task> legs;
  legs.push_back(sim::Transfer(cluster.node(node).nic_tx(), len));
  legs.push_back(cluster.burst_buffer().Access(BbNodeOf(producer), len));
  co_await sim::WhenAll(cluster.engine(), std::move(legs));
  replicated_bytes_ += len;
  replication_backlog_ -= std::min(replication_backlog_, len);
  if (NodeFailed(node)) co_return;  // too late: coverage froze at crash time
  ProducerSlot& slot = *SlotOf(Info(fid), producer);  // the write built it
  const auto li = static_cast<std::size_t>(layer);
  Bytes& replicated = slot.replicated[li];
  if (slot.pending_replicas == nullptr)
    slot.pending_replicas =
        std::make_unique<std::array<std::map<Bytes, Bytes>, hw::kLayerCount>>();
  std::map<Bytes, Bytes>& pending = (*slot.pending_replicas)[li];
  pending.emplace(physical, len);
  for (auto it = pending.begin(); it != pending.end() && it->first <= replicated;
       it = pending.erase(it)) {
    replicated = std::max(replicated, it->first + it->second);
  }
}

void UniviStor::FailNode(int node) {
  if (!failed_nodes_.insert(node).second) return;
  obs::Count("fault.node_failures");
  if (!config_.recovery.enabled) return;

  // Metadata range-repartitioning: retire every metadata server hosted on
  // the dead node; their ranges re-home to live successors.
  for (int s = node * config_.servers_per_node;
       s < (node + 1) * config_.servers_per_node && s >= 0 && s < total_servers_; ++s) {
    const std::size_t moved = metadata_->RetireServer(s);
    repartitioned_records_ += moved;
    obs::Count("fault.repartitioned_records", moved);
  }
  runtime_->engine().Spawn(RecoverNodeTask(node), "recover:node" + std::to_string(node));
}

bool UniviStor::NodeFailed(int node) const { return failed_nodes_.contains(node); }

bool UniviStor::ReplicaCovers(storage::FileId fid, ProducerId producer, hw::Layer layer,
                              Bytes physical, Bytes len) const {
  const ProducerSlot* slot = FindSlot(fid, producer);
  return slot != nullptr && physical + len <= slot->replicated[static_cast<std::size_t>(layer)];
}

bool UniviStor::DurableCovers(storage::FileId fid, ProducerId producer, hw::Layer layer,
                              Bytes physical, Bytes len) const {
  const ProducerSlot* slot = FindSlot(fid, producer);
  return slot != nullptr && physical + len <= slot->durable[static_cast<std::size_t>(layer)];
}

Bytes UniviStor::AccountLost(storage::FileId fid, ProducerId producer, Bytes va, Bytes len) {
  std::map<Bytes, Bytes>& ivals = lost_extents_[{fid, producer}];  // va -> end
  Bytes lo = va;
  Bytes hi = va + len;
  Bytes existing = 0;
  auto it = ivals.lower_bound(lo);
  if (it != ivals.begin() && std::prev(it)->second >= lo) --it;
  while (it != ivals.end() && it->first <= hi) {
    lo = std::min(lo, it->first);
    hi = std::max(hi, it->second);
    existing += it->second - it->first;
    it = ivals.erase(it);
  }
  ivals[lo] = hi;
  return (hi - lo) - existing;
}

sim::Task UniviStor::RecoverNodeTask(int node) {
  hw::Cluster& cluster = runtime_->cluster();
  int home = 0;  // surviving node that drives the re-stripe transfers
  for (int n = 0; n < cluster.node_count(); ++n) {
    if (!NodeFailed(n)) {
      home = n;
      break;
    }
  }

  // Snapshot the work synchronously at crash time: replica-covered
  // volatile bytes of the dead node not yet durable on the PFS. (Coverage
  // is frozen for failed producers, so this set cannot grow later.)
  struct Item {
    FileInfo* info;
    ProducerSlot* slot;
    ProducerId producer;
    hw::Layer layer;
    Bytes recoverable;
    Bytes todo;
  };
  std::vector<Item> work;
  for (auto& file : files_) {
    ForEachChain(*file, [&](ProducerId producer, ProducerSlot& slot) {
      const int producer_node =
          runtime_->Rank(ProducerProgram(producer), ProducerRank(producer)).node;
      if (producer_node != node) return;
      for (hw::Layer layer : {hw::Layer::kDram, hw::Layer::kNodeLocalSsd}) {
        const auto li = static_cast<std::size_t>(layer);
        const Bytes recoverable = std::min(slot.replicated[li], slot.chain->PlacedOn(layer));
        if (recoverable > slot.durable[li])
          work.push_back({file.get(), &slot, producer, layer, recoverable,
                          recoverable - slot.durable[li]});
      }
    });
  }

  for (const Item& item : work) {
    PfsDestination(*item.info);
    // The nearest surviving copy is the BB replica; pull it through the
    // home node's NIC and stripe it adaptively as one writer.
    const placement::StripePlan plan = placement::PlanAdaptiveStriping(
        item.todo, /*servers=*/1, pfs_->ost_count(), config_.striping);
    std::vector<sim::Task> legs;
    legs.push_back(cluster.burst_buffer().Access(BbNodeOf(item.producer), item.todo));
    legs.push_back(sim::Transfer(cluster.node(home).nic_rx(), item.todo));
    legs.push_back(pfs_->Write(item.info->pfs_file, 0, item.todo, home,
                               {.layout = storage::AccessLayout::kAlignedRanges,
                                .target_osts = plan.TargetsFor(0),
                                .coordinated = true}));
    co_await sim::WhenAll(cluster.engine(), std::move(legs));
    Bytes& durable = item.slot->durable[static_cast<std::size_t>(item.layer)];
    durable = std::max(durable, item.recoverable);
    restriped_bytes_ += item.todo;
    obs::Count("fault.restriped_bytes", item.todo);
  }
}

sim::Task UniviStor::AwaitTransferClearance() {
  const fault::BackoffPolicy policy{};
  int attempt = 0;
  while (faults_->TransferFaultActive() && attempt < policy.max_retries) {
    const Time delay = fault::BackoffDelay(policy, attempt, retry_rng_);
    ++attempt;
    ++flush_retries_;
    backoff_seconds_ += delay;
    obs::Count("fault.flush_retries");
    obs::Observe("fault.backoff_seconds", delay);
    co_await runtime_->engine().Delay(delay);
  }
}

void UniviStor::Promote(int node, const meta::MetadataRecord& record) {
  NodeState& local = Node(node);
  // One synthetic producer per node keys the cache log for this file.
  const storage::LogKey key{record.fid, -(node + 1)};
  storage::LogFile* log = local.read_cache.OpenLog(key, config_.read_cache_capacity_per_node);
  if (log == nullptr) return;
  Bytes granted = 0;
  for (const auto& extent : log->AppendUpTo(record.len)) granted += extent.len;
  if (granted == 0) return;  // cache full: best effort, no eviction
  meta::MetadataRecord cached = record;
  cached.len = granted;
  local.read_cache_index.Insert(cached);
  promoted_bytes_ += granted;
}

sim::Task UniviStor::ReadRecord(vmpi::ProgramId program, int rank, FileInfo& info,
                                const meta::MetadataRecord& record, obs::SpanRef parent) {
  hw::Cluster& cluster = runtime_->cluster();
  sim::Engine& engine = cluster.engine();
  hw::DeviceArray& bb = cluster.burst_buffer();
  const int reader_node = runtime_->Rank(program, rank).node;
  const Bytes len = record.len;
  const obs::Track track = obs::Track::Rank(reader_node, program, rank);
  obs::Legs legs(engine, "univistor", track, parent);

  const ProducerSlot* slot = SlotOf(info, record.producer);
  if (slot == nullptr || !slot->chain) {
    // No cached copy (e.g. data only exists as the flushed PFS file).
    if (info.pfs_file >= 0) {
      co_await legs.Tag("pfs.read.wait", obs::Category::kPfs, 0.0, len,
                        pfs_->Read(info.pfs_file, record.offset, len, reader_node,
                                   {.layout = storage::AccessLayout::kAlignedRanges,
                                    .parent = parent}));
    }
    co_return;
  }
  const auto decoded = slot->chain->codec().Decode(record.va);
  assert(decoded.ok());
  const int producer_node =
      runtime_->Rank(ProducerProgram(record.producer), ProducerRank(record.producer)).node;
  const bool local = producer_node == reader_node;
  const bool la = config_.location_aware_reads;

  // Resilience: volatile data on a failed node is served from the BB
  // replica (if the replica actually covers the extent), or from the PFS
  // copy (if a flush or re-stripe covered it), or counted as lost. Both
  // coverage checks matter: a PFS destination created by an unrelated
  // spill does not contain unflushed DRAM extents.
  if ((decoded->layer == hw::Layer::kDram || decoded->layer == hw::Layer::kNodeLocalSsd) &&
      NodeFailed(producer_node)) {
    if (config_.replicate_volatile &&
        ReplicaCovers(record.fid, record.producer, decoded->layer, decoded->physical, len)) {
      const int bb_node = BbNodeOf(record.producer);
      legs.Add("bb.read", obs::Category::kBb, bb.SoloTime(bb_node, len), len,
               bb.Access(bb_node, len, 1.0, parent));
      legs.Pool("nic.rx", obs::Category::kNet, cluster.node(reader_node).nic_rx(), len);
      legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), len);
      co_await legs.Join();
    } else if (info.pfs_file >= 0 && DurableCovers(record.fid, record.producer, decoded->layer,
                                                   decoded->physical, len)) {
      co_await legs.Tag("pfs.read.wait", obs::Category::kPfs, 0.0, len,
                        pfs_->Read(info.pfs_file, record.offset, len, reader_node,
                                   {.layout = storage::AccessLayout::kAlignedRanges,
                                    .parent = parent}));
    } else {
      const Bytes newly_lost = AccountLost(record.fid, record.producer, record.va, len);
      if (newly_lost > 0) {
        ++lost_reads_;
        lost_bytes_ += newly_lost;
        obs::Count("fault.lost_bytes", newly_lost);
      }
    }
    co_return;
  }

  switch (decoded->layer) {
    case hw::Layer::kDram:
    case hw::Layer::kNodeLocalSsd: {
      if (local) {
        // Without LA the request detours through the co-located server and
        // pays an extra memory copy (§II-B4).
        const Bytes moved = la ? len : 2 * len;
        legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), moved);
        if (decoded->layer == hw::Layer::kDram) {
          legs.Pool("dram.read", obs::Category::kDram, runtime_->RankDram(program, rank), moved);
        } else {
          legs.Pool("ssd.read", obs::Category::kDram, cluster.node(reader_node).local_ssd(), len);
        }
      } else {
        // Remote segment: served by the server co-located with the data.
        {
          obs::SpanTimer rt(engine, "univistor", "net.roundtrip", track, obs::kNoBytes,
                            {.cat = obs::Category::kNet, .parent = parent});
          co_await cluster.network().RoundTrip(reader_node, producer_node);
        }
        const int remote_server =
            producer_node * config_.servers_per_node +
            static_cast<int>(record.va % static_cast<Bytes>(config_.servers_per_node));
        legs.Pool("remote.cpu", obs::Category::kNet,
                  runtime_->RankCpu(server_program_, remote_server), len);
        if (decoded->layer == hw::Layer::kDram) {
          legs.Pool("remote.dram", obs::Category::kDram,
                    runtime_->RankDram(server_program_, remote_server), len);
        } else {
          legs.Pool("remote.ssd", obs::Category::kDram, cluster.node(producer_node).local_ssd(),
                    len);
        }
        legs.Add("net.rx", obs::Category::kNet, 0.0, len,
                 cluster.network().Transfer(producer_node, reader_node, len));
        legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), len);
      }
      break;
    }
    case hw::Layer::kSharedBurstBuffer: {
      const int bb_node = BbNodeOf(record.producer);
      legs.Add("bb.read", obs::Category::kBb, bb.SoloTime(bb_node, len), len,
               bb.Access(bb_node, len, 1.0, parent));
      legs.Pool("nic.rx", obs::Category::kNet, cluster.node(reader_node).nic_rx(), len);
      if (la) {
        legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), len);
      } else {
        // Detour via the producer-side server: extra network hop + copy.
        legs.Add("net.rx", obs::Category::kNet, 0.0, len,
                 cluster.network().Transfer(producer_node, reader_node, len));
        legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), 2 * len);
      }
      break;
    }
    case hw::Layer::kPfs: {
      if (info.pfs_file >= 0) {
        legs.Add("pfs.read.wait", obs::Category::kPfs, 0.0, len,
                 pfs_->Read(info.pfs_file, record.offset, len, reader_node,
                            {.layout = storage::AccessLayout::kSharedInterleaved,
                             .parent = parent}));
      }
      legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank), len);
      break;
    }
  }
  co_await legs.Join();

  // Proactive placement: promote data served from a slow or remote
  // location into the reader node's DRAM read cache.
  if (config_.promote_hot_reads &&
      (!local || decoded->layer == hw::Layer::kSharedBurstBuffer ||
       decoded->layer == hw::Layer::kPfs)) {
    Promote(reader_node, record);
  }
}

sim::Task UniviStor::Read(vmpi::ProgramId program, int rank, storage::FileId fid,
                          Bytes offset, Bytes len, obs::SpanRef parent) {
  FileInfo& info = Info(fid);
  sim::Engine& engine = runtime_->engine();
  const int node = runtime_->Rank(program, rank).node;
  const obs::Track track = obs::Track::Rank(node, program, rank);

  std::vector<std::pair<Bytes, Bytes>> pieces{{offset, len}};

  // Proactive-placement read cache first: promoted segments are DRAM-local
  // regardless of where their canonical copy lives.
  if (config_.promote_hot_reads) {
    std::vector<std::pair<Bytes, Bytes>> misses;
    obs::Legs hit_legs(engine, "univistor", track, parent);
    for (const auto& [piece_offset, piece_len] : pieces) {
      Bytes cursor = piece_offset;
      for (const auto& hit : CachedRecords(node, fid, piece_offset, piece_len)) {
        if (hit.offset > cursor) misses.emplace_back(cursor, hit.offset - cursor);
        hit_legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(program, rank),
                      hit.len);
        hit_legs.Pool("dram.read", obs::Category::kDram, runtime_->RankDram(program, rank),
                      hit.len);
        ++read_cache_hits_;
        cursor = hit.end();
      }
      if (cursor < piece_offset + piece_len)
        misses.emplace_back(cursor, piece_offset + piece_len - cursor);
    }
    co_await hit_legs.Join();
    pieces = std::move(misses);
  }

  std::vector<meta::MetadataRecord> to_read;
  std::vector<std::pair<Bytes, Bytes>> uncovered;

  if (config_.location_aware_reads) {
    // Local metadata buffer next: locally produced segments bypass the
    // servers entirely (§II-B4).
    for (const auto& [piece_offset, piece_len] : pieces) {
      Bytes cursor = piece_offset;
      for (const auto& hit : BufferedRecords(node, fid, piece_offset, piece_len)) {
        if (hit.offset > cursor) uncovered.emplace_back(cursor, hit.offset - cursor);
        to_read.push_back(hit);
        cursor = hit.end();
      }
      if (cursor < piece_offset + piece_len)
        uncovered.emplace_back(cursor, piece_offset + piece_len - cursor);
    }
  } else {
    uncovered = pieces;
    // The request is delegated to the co-located server (§II-A).
    {
      obs::SpanTimer rt(engine, "univistor", "md.delegate", track, obs::kNoBytes,
                        {.cat = obs::Category::kNet, .parent = parent});
      co_await runtime_->cluster().network().RoundTrip(node, node);
    }
  }

  // Distributed metadata lookup for everything not resolved locally.
  for (const auto& [piece_offset, piece_len] : uncovered) {
    for (int server : metadata_->partitioner().ServersFor(piece_offset, piece_len))
      co_await MetadataRpc(node, server, 1, track, parent);
    auto records = metadata_->Query(fid, piece_offset, piece_len);
    to_read.insert(to_read.end(), records.begin(), records.end());
  }

  std::vector<sim::Task> legs;
  legs.reserve(to_read.size());
  for (const auto& record : to_read)
    legs.push_back(ReadRecord(program, rank, info, record, parent));
  co_await sim::WhenAll(engine, std::move(legs));
}

sim::Task UniviStor::ServerFlushShare(FileInfo& info, int server_idx, Bytes range_offset,
                                      Bytes dram_bytes, Bytes bb_bytes,
                                      const placement::StripePlan& plan, bool coordinated,
                                      obs::SpanRef flush_ref) {
  hw::Cluster& cluster = runtime_->cluster();
  sim::Engine& engine = cluster.engine();
  const int node = ServerNode(server_idx);
  const obs::Track track = obs::Track::Rank(node, server_program_, server_idx);
  runtime_->SetRankBusy(server_program_, server_idx, true);

  // Transient transfer-timeout fault windows: back off and retry before
  // moving data. Guarded so unfaulted runs add no engine events.
  if (faults_ != nullptr && config_.recovery.enabled) {
    obs::SpanTimer backoff(engine, "univistor", "fault.backoff", track, obs::kNoBytes,
                           {.cat = obs::Category::kQueue, .parent = flush_ref});
    co_await AwaitTransferClearance();
  }

  const Bytes total = dram_bytes + bb_bytes;
  const obs::SpanRef self = obs::NewSpanRef();
  obs::SpanTimer span(engine, "univistor", "flush.share", track, total,
                      {.parent = flush_ref, .self = self});
  obs::Legs legs(engine, "univistor", track, self);
  if (dram_bytes > 0) {
    legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(server_program_, server_idx),
              dram_bytes);
    legs.Pool("dram.read", obs::Category::kDram,
              runtime_->RankDram(server_program_, server_idx), dram_bytes);
  }
  if (bb_bytes > 0) {
    hw::DeviceArray& bb = cluster.burst_buffer();
    const int bb_node = server_idx % bb.size();
    legs.Add("bb.read", obs::Category::kBb, bb.SoloTime(bb_node, bb_bytes), bb_bytes,
             bb.Access(bb_node, bb_bytes, 1.0, self));
    legs.Pool("nic.rx", obs::Category::kNet, cluster.node(node).nic_rx(), bb_bytes);
  }
  if (total > 0) {
    legs.Add("pfs.write.wait", obs::Category::kPfs, 0.0, total,
             pfs_->Write(info.pfs_file, range_offset, total, node,
                         {.layout = storage::AccessLayout::kAlignedRanges,
                          .target_osts = plan.TargetsFor(server_idx),
                          .coordinated = coordinated,
                          .parent = self}));
  }
  co_await legs.Join();
  runtime_->SetRankBusy(server_program_, server_idx, false);
}

sim::Task UniviStor::FlushTask(storage::FileId fid) {
  FileInfo& info = Info(fid);
  hw::Cluster& cluster = runtime_->cluster();
  const Time start = cluster.engine().Now();

  co_await workflow_->AcquireFlush(fid);

  // Bytes still cached above the PFS. The per-producer snapshot feeds the
  // durability watermarks once the flush lands: everything cached at flush
  // start is on the PFS when the flush completes, except the DRAM and
  // node-SSD bytes of a node already dead at flush start, which the crash
  // destroyed. The flush volume still counts them.
  Bytes dram_total = 0, bb_total = 0;
  std::vector<std::pair<ProducerSlot*, std::array<Bytes, hw::kLayerCount>>> snapshot;
  std::size_t slots = 0;
  for (const ProgramSlots& program : info.producers) slots += program.ranks.size();
  snapshot.reserve(slots);
  ForEachChain(info, [&](ProducerId producer, ProducerSlot& slot) {
    const placement::DhpWriterChain& chain = *slot.chain;
    dram_total += chain.PlacedOn(hw::Layer::kDram) + chain.PlacedOn(hw::Layer::kNodeLocalSsd);
    bb_total += chain.PlacedOn(hw::Layer::kSharedBurstBuffer);
    const bool dead =
        NodeFailed(runtime_->Rank(ProducerProgram(producer), ProducerRank(producer)).node);
    auto& snap = snapshot.emplace_back(&slot, std::array<Bytes, hw::kLayerCount>{}).second;
    for (int li = 0; li < hw::kLayerCount; ++li) {
      const auto layer = static_cast<hw::Layer>(li);
      const bool destroyed =
          dead && (layer == hw::Layer::kDram || layer == hw::Layer::kNodeLocalSsd);
      snap[static_cast<std::size_t>(li)] = destroyed ? 0 : chain.PlacedOn(layer);
    }
  });
  // Only bytes cached since the previous flush need to move (cached data
  // is never evicted, so the watermark is monotonic).
  const Bytes cached = dram_total + bb_total;
  const Bytes total = cached > info.flushed_watermark ? cached - info.flushed_watermark : 0;
  if (total == 0) {
    co_await workflow_->ReleaseFlush(fid);
    info.flush_in_flight = false;
    co_return;
  }
  info.flushed_watermark = cached;
  // Split the delta across layers in proportion to the cached mix.
  dram_total = static_cast<Bytes>(static_cast<unsigned __int128>(total) * dram_total / cached);
  bb_total = total - dram_total;

  PfsDestination(info);

  const placement::StripePlan plan =
      config_.adaptive_striping
          ? placement::PlanAdaptiveStriping(total, total_servers_, pfs_->ost_count(),
                                            config_.striping)
          : placement::PlanDefaultStriping(total, total_servers_, pfs_->ost_count());

  if (config_.interference_aware_flush) runtime_->BeginServerFlushAllNodes();

  std::vector<sim::Task> shares;
  Bytes range_offset = 0;
  for (int s = 0; s < total_servers_; ++s) {
    const Bytes share = plan.RangeBytesFor(s, total);
    // 128-bit intermediate: share * dram_total overflows 64 bits at tens
    // of GB.
    const Bytes dram_share =
        total > 0 ? static_cast<Bytes>(static_cast<unsigned __int128>(share) * dram_total /
                                       total)
                  : 0;
    const Bytes bb_share = share - dram_share;
    shares.push_back(ServerFlushShare(info, s, range_offset, dram_share, bb_share, plan,
                                      config_.adaptive_striping, info.flush_span));
    range_offset += share;
  }
  co_await sim::WhenAll(cluster.engine(), std::move(shares));

  // The flush landed: every byte of the snapshot is now readable from the
  // PFS destination, including chains of a node that died while the flush
  // was in flight.
  for (const auto& [slot, snap] : snapshot) {
    for (std::size_t li = 0; li < static_cast<std::size_t>(hw::kLayerCount); ++li)
      slot->durable[li] = std::max(slot->durable[li], snap[li]);
  }

  if (config_.interference_aware_flush) runtime_->EndServerFlushAllNodes();
  co_await workflow_->ReleaseFlush(fid);

  const Time duration = cluster.engine().Now() - start;
  flush_stats_.flushes += 1;
  flush_stats_.bytes_flushed += total;
  flush_stats_.last_flush_duration = duration;
  flush_stats_.total_flush_time += duration;
  if (obs::Recorder* rec = obs::Recorder::Current()) {
    // Mirrors flush_stats_ so the metrics file agrees with the timing
    // summary printed by the tools.
    rec->AddSpanTagged("univistor", "flush", obs::Track::Flush(fid), start,
                       cluster.engine().Now(), total, {.self = info.flush_span});
    obs::Count("flush.count");
    obs::Count("flush.bytes", total);
    obs::Observe("flush.duration", duration);
  }
  info.flush_in_flight = false;
}

void UniviStor::TriggerFlush(storage::FileId fid) {
  FileInfo& info = Info(fid);
  if (info.flush_in_flight) return;
  info.flush_in_flight = true;
  info.flush_span = obs::NewSpanRef();  // causal id the flush span will carry
  info.flush_process =
      runtime_->engine().Spawn(FlushTask(fid), "flush:" + info.name);
}

obs::SpanRef UniviStor::FlushSpan(storage::FileId fid) const {
  const FileInfo* info = FindInfo(fid);
  return info != nullptr ? info->flush_span : obs::SpanRef{};
}

sim::Task UniviStor::WaitFlush(storage::FileId fid) {
  FileInfo& info = Info(fid);
  if (info.flush_process.valid() && !info.flush_process.finished())
    co_await info.flush_process.Done().Wait();
}

sim::Task UniviStor::WaitAllFlushes() {
  for (auto& info : files_) {
    if (info->flush_process.valid() && !info->flush_process.finished())
      co_await info->flush_process.Done().Wait();
  }
}

void UniviStor::RegisterGauges(obs::Sampler& sampler) {
  sampler.AddSource([this] {
    Bytes dram = 0, ssd = 0, read_cache = 0;
    for (const auto& state : nodes_) {
      if (state == nullptr) continue;
      dram += state->dram.used();
      if (state->ssd) ssd += state->ssd->used();
      read_cache += state->read_cache.used();
    }
    obs::SetGauge("storage.dram.used_bytes", static_cast<double>(dram));
    obs::SetGauge("storage.ssd.used_bytes", static_cast<double>(ssd));
    obs::SetGauge("storage.bb.used_bytes", static_cast<double>(bb_store_->used()));
    obs::SetGauge("storage.read_cache.used_bytes", static_cast<double>(read_cache));
    obs::SetGauge("univistor.flushed_bytes", static_cast<double>(flush_stats_.bytes_flushed));
  });
}

Bytes UniviStor::CachedOn(storage::FileId fid, hw::Layer layer) const {
  const FileInfo* info = FindInfo(fid);
  if (info == nullptr) return 0;
  Bytes total = 0;
  ForEachChain(*info, [&](ProducerId, const ProducerSlot& slot) {
    total += slot.chain->PlacedOn(layer);
  });
  return total;
}

}  // namespace uvs::univistor
