// The UniviStor integrated storage system (§II).
//
// Owns the server program (servers_per_node ranks on every compute node),
// the per-layer stores (node DRAM, optional node SSD, shared BB), the
// distributed metadata service, the per-node shared metadata buffers, the
// DHP writer chains, and the server-side flush service. A node's stores
// and buffers are built when the node is first written from or promoted
// into. The MPI-IO client driver (driver.hpp) calls into this object.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/meta/record_index.hpp"
#include "src/meta/service.hpp"
#include "src/obs/recorder.hpp"
#include "src/placement/dhp.hpp"
#include "src/sim/sync.hpp"
#include "src/storage/pfs.hpp"
#include "src/univistor/config.hpp"
#include "src/vmpi/file.hpp"
#include "src/vmpi/runtime.hpp"
#include "src/workflow/manager.hpp"

namespace uvs::obs {
class Sampler;
}

namespace uvs::fault {
class Injector;
}

namespace uvs::univistor {

/// Globally unique producer id for a (program, rank) pair.
using ProducerId = std::int64_t;
constexpr ProducerId MakeProducer(vmpi::ProgramId program, int rank) {
  return (static_cast<ProducerId>(program) << 32) | static_cast<std::uint32_t>(rank);
}
constexpr vmpi::ProgramId ProducerProgram(ProducerId id) {
  return static_cast<vmpi::ProgramId>(id >> 32);
}
constexpr int ProducerRank(ProducerId id) { return static_cast<int>(id & 0xffffffff); }

class UniviStor {
 public:
  struct FlushStats {
    int flushes = 0;
    Bytes bytes_flushed = 0;
    Time last_flush_duration = 0;
    Time total_flush_time = 0;
  };

  UniviStor(vmpi::Runtime& runtime, storage::Pfs& pfs, workflow::WorkflowManager& workflow,
            Config config);
  UniviStor(const UniviStor&) = delete;
  UniviStor& operator=(const UniviStor&) = delete;
  ~UniviStor();

  const Config& config() const { return config_; }
  vmpi::Runtime& runtime() { return *runtime_; }
  /// The server program launched on every node; its job retires it.
  vmpi::ProgramId server_program() const { return server_program_; }
  workflow::WorkflowManager& workflow() { return *workflow_; }
  storage::Pfs& pfs() { return *pfs_; }
  int total_servers() const { return total_servers_; }

  // --- File namespace. ---
  storage::FileId OpenOrCreate(const std::string& name);
  Bytes LogicalSize(storage::FileId fid) const;
  int file_count() const { return static_cast<int>(files_.size()); }
  const std::string& FileName(storage::FileId fid) const;

  // --- Client request paths, invoked by the ADIO driver. ---
  // Every verb takes the causal parent span of the MPI-IO operation that
  // issued it (obs::attribution DAG); anonymous ({}) when tracing is off.
  /// Metadata open/close traffic for one collective operation.
  sim::Task OpenMetadata(vmpi::ProgramId program, int rank, storage::FileId fid,
                         obs::SpanRef parent = {});
  sim::Task CloseMetadata(vmpi::ProgramId program, int rank, storage::FileId fid,
                          obs::SpanRef parent = {});

  /// Caches `len` bytes of `fid` at logical `offset`, written by (program,
  /// rank), into the DHP hierarchy; inserts metadata records.
  sim::Task Write(vmpi::ProgramId program, int rank, storage::FileId fid, Bytes offset,
                  Bytes len, obs::SpanRef parent = {});

  /// Location-aware read of [offset, offset+len).
  sim::Task Read(vmpi::ProgramId program, int rank, storage::FileId fid, Bytes offset,
                 Bytes len, obs::SpanRef parent = {});

  /// Asynchronous server-side flush of `fid` to the PFS; returns once the
  /// flush has been *started* (it runs as its own simulation process).
  void TriggerFlush(storage::FileId fid);
  /// Completes when no flush for `fid` is in flight (immediately if none
  /// ever started).
  sim::Task WaitFlush(storage::FileId fid);
  sim::Task WaitAllFlushes();

  const FlushStats& flush_stats() const { return flush_stats_; }
  /// Span id of the most recent flush of `fid` ({} if never flushed with
  /// tracing on); the driver links close ops to the flush they triggered.
  obs::SpanRef FlushSpan(storage::FileId fid) const;
  /// Bytes of `fid` currently cached per layer (summed over producers).
  Bytes CachedOn(storage::FileId fid, hw::Layer layer) const;

  // --- Invariant accessors (testkit:: whole-system checks). ---
  /// Total bytes accepted by Write() for `fid` (including overwrites).
  Bytes BytesWritten(storage::FileId fid) const;
  /// The distributed metadata partitions (read-only introspection).
  const meta::DistributedMetadataService& metadata() const { return *metadata_; }
  /// The DHP chain of (fid, producer), or nullptr if that producer never
  /// wrote the file. Exposes the VA codec for round-trip verification.
  const placement::DhpWriterChain* FindChain(storage::FileId fid, ProducerId producer) const;
  /// True once a PFS destination exists for `fid` (created at first flush
  /// or first spill) — failure-path reads fall back to it.
  bool HasPfsCopy(storage::FileId fid) const;

  /// Registers layer-occupancy gauges (DRAM/SSD/BB/read-cache used bytes)
  /// with a periodic sampler.
  void RegisterGauges(obs::Sampler& sampler);

  /// One metadata server's own counters: seconds in its serialized service
  /// section (its `rpc.service` spans) and client seconds queued for it.
  struct MdServerLoad {
    Time service = 0;
    Time wait = 0;
  };
  /// Per server index; the device USE rows of the metadata servers.
  const std::vector<MdServerLoad>& md_load() const { return md_load_; }

  // --- Resilience extension (§V future work). ---
  /// Marks a compute node's volatile layers (DRAM/SSD) as lost. Reads of
  /// affected segments fall back to the BB replica (when
  /// config.replicate_volatile is on and the replica covers the extent) or
  /// to the flushed PFS copy (when it covers the extent). With
  /// config.recovery.enabled the failure also retires the node's metadata
  /// servers (range-repartitioning) and re-stripes replica-covered
  /// volatile extents to the PFS.
  void FailNode(int node);
  bool NodeFailed(int node) const;
  /// Bytes replicated to the BB so far.
  Bytes replicated_bytes() const { return replicated_bytes_; }
  /// Reads that found neither a replica nor a PFS copy after a failure.
  int lost_reads() const { return lost_reads_; }
  /// Exact byte count of those lost reads, deduplicated per extent (for
  /// conservation accounting).
  Bytes lost_bytes() const { return lost_bytes_; }

  // --- Fault-injection & recovery (fault:: subsystem, docs/FAULTS.md). ---
  /// Attaches a fault injector; recovery-enabled flush paths consult it
  /// for open transfer-timeout windows. Pass nullptr to detach. The
  /// injector must outlive the attachment.
  void AttachFaults(const fault::Injector* injector) { faults_ = injector; }
  /// True if [physical, physical+len) of (fid, producer) on `layer` has
  /// landed in the BB replica (contiguous-prefix watermark; log physical
  /// addresses are monotonic so a watermark describes coverage exactly).
  bool ReplicaCovers(storage::FileId fid, ProducerId producer, hw::Layer layer, Bytes physical,
                     Bytes len) const;
  /// Same question for the flushed/re-striped PFS copy.
  bool DurableCovers(storage::FileId fid, ProducerId producer, hw::Layer layer, Bytes physical,
                     Bytes len) const;
  /// Bytes of dead-node volatile extents re-striped to the PFS.
  Bytes restriped_bytes() const { return restriped_bytes_; }
  /// Flush transfer retries taken during timeout fault windows.
  int flush_retries() const { return flush_retries_; }
  /// Total simulated seconds spent in retry backoff.
  Time backoff_seconds() const { return backoff_seconds_; }
  /// Bytes written through synchronously because safe mode was active.
  Bytes safe_mode_bytes() const { return safe_mode_bytes_; }
  /// Metadata records re-homed off retired servers.
  std::size_t repartitioned_records() const { return repartitioned_records_; }
  /// Volatile bytes whose background replica copy has not landed yet.
  Bytes replication_backlog() const { return replication_backlog_; }

  // --- Proactive placement extension (§V future work). ---
  /// Bytes promoted into node-local read caches so far.
  Bytes promoted_bytes() const { return promoted_bytes_; }
  int read_cache_hits() const { return read_cache_hits_; }

 private:
  /// One (file, producer)'s slot: its DHP chain, built at the producer's
  /// first write, and the durability bookkeeping of the resilience paths.
  /// The watermarks are indexed by hw::Layer; only the volatile layers
  /// (DRAM, node SSD) ever advance. Replica completions can land out of
  /// order, so finished extents park in `pending_replicas` (built at the
  /// producer's first replica) until the contiguous prefix catches up and
  /// the watermark can advance.
  struct ProducerSlot {
    std::optional<placement::DhpWriterChain> chain;
    std::array<Bytes, hw::kLayerCount> replicated{};  // BB-replica coverage watermark
    std::array<Bytes, hw::kLayerCount> durable{};     // PFS-copy coverage watermark
    std::unique_ptr<std::array<std::map<Bytes, Bytes>, hw::kLayerCount>>
        pending_replicas;  // start -> len
  };

  /// The slots of one program that writes a file, indexed by rank. Sized
  /// to the program at its first write to the file and never resized, so
  /// a chain never moves.
  struct ProgramSlots {
    vmpi::ProgramId program;
    std::vector<ProducerSlot> ranks;
  };

  /// One compute node's state: its DRAM and node-SSD stores, its shared
  /// metadata buffer (§II-B4) and its read cache. Built by the node's
  /// first write or promotion, so a tenant costs the nodes it touches.
  struct NodeState {
    NodeState(const hw::ClusterParams& params, const Config& config);
    storage::LayerStore dram;
    std::optional<storage::LayerStore> ssd;  // only with a node-local SSD
    meta::RecordIndex md_buffer;
    storage::LayerStore read_cache;
    meta::RecordIndex read_cache_index;
  };

  struct FileInfo {
    std::string name;
    Bytes logical_size = 0;
    Bytes bytes_written = 0;  // total accepted by Write(), incl. overwrites
    std::vector<ProgramSlots> producers;  // sorted by program id
    storage::Pfs::FileHandle pfs_file = -1;  // destination / spill target
    sim::Process flush_process;
    bool flush_in_flight = false;
    obs::SpanRef flush_span;  // causal id of the in-flight/last flush
    Bytes flushed_watermark = 0;  // cached bytes already persisted
  };

  FileInfo& Info(storage::FileId fid);
  const FileInfo* FindInfo(storage::FileId fid) const;

  /// The slot of (fid, producer), or nullptr if the producer's program
  /// never wrote the file.
  const ProducerSlot* FindSlot(storage::FileId fid, ProducerId producer) const;

  /// The node's state, built on first use.
  NodeState& Node(int node);
  /// Records of `fid` in [offset, offset+len) in `node`'s metadata buffer,
  /// or in its read cache; none, and nothing built, on an untouched node.
  std::vector<meta::MetadataRecord> BufferedRecords(int node, storage::FileId fid, Bytes offset,
                                                    Bytes len) const;
  std::vector<meta::MetadataRecord> CachedRecords(int node, storage::FileId fid, Bytes offset,
                                                  Bytes len) const;

  /// Lazily builds the producer's DHP chain with c/p log capacities.
  placement::DhpWriterChain& Chain(FileInfo& info, vmpi::ProgramId program, int rank);

  /// Metadata RPC from a client node to metadata server `server_idx`
  /// (service time is serialized per server). Records it once
  /// (obs::MetadataRpcTimer): the server's rpc.service span and the
  /// rank-side md.roundtrip / md.queue / md.service decomposition on
  /// `rank_track`; adds the service and queue time to the server's
  /// md_load().
  sim::Task MetadataRpc(int client_node, int server_idx, int ops, obs::Track rank_track,
                        obs::SpanRef parent);

  int ServerNode(int server_idx) const { return server_idx / config_.servers_per_node; }

  /// Device-charging legs for one placed extent written by (program, rank)
  /// at logical file offset `logical_offset`.
  sim::Task ChargeWrite(vmpi::ProgramId program, int rank, FileInfo& info,
                        placement::Placement placement, Bytes logical_offset,
                        obs::SpanRef parent);

  /// Lazily creates the file's PFS destination (shared, striped wide).
  storage::Pfs::FileHandle PfsDestination(FileInfo& info);

  /// Read one metadata record's bytes to (program, rank).
  sim::Task ReadRecord(vmpi::ProgramId program, int rank, FileInfo& info,
                       const meta::MetadataRecord& record, obs::SpanRef parent);

  sim::Task FlushTask(storage::FileId fid);
  sim::Task ServerFlushShare(FileInfo& info, int server_idx, Bytes range_offset,
                             Bytes dram_bytes, Bytes bb_bytes,
                             const placement::StripePlan& plan, bool coordinated,
                             obs::SpanRef flush_ref);

  int BbNodeOf(ProducerId producer) const;

  /// Async BB replication of a volatile-layer placement (resilience).
  /// Completion advances the (fid, producer, layer) replica watermark —
  /// unless the node already failed, in which case the copy arrived too
  /// late to save anything and coverage stays frozen at crash time.
  sim::Task ReplicateTask(int node, storage::FileId fid, ProducerId producer, hw::Layer layer,
                          Bytes physical, Bytes len);

  /// Re-stripes the dead node's replica-covered volatile extents from the
  /// BB onto the PFS (spawned by FailNode when recovery is enabled).
  sim::Task RecoverNodeTask(int node);

  /// Retry/backoff prelude for flush transfers while a transfer-timeout
  /// fault window is open. Only called when recovery is enabled and an
  /// injector is attached.
  sim::Task AwaitTransferClearance();

  /// Interval-union lost-byte accounting: returns the newly lost bytes of
  /// [va, va+len) for (fid, producer) not counted before.
  Bytes AccountLost(storage::FileId fid, ProducerId producer, Bytes va, Bytes len);

  /// Inserts the just-read record into `node`'s read cache (promotion).
  void Promote(int node, const meta::MetadataRecord& record);

  vmpi::Runtime* runtime_;
  storage::Pfs* pfs_;
  workflow::WorkflowManager* workflow_;
  Config config_;

  vmpi::ProgramId server_program_ = -1;
  int total_servers_ = 0;

  // Storage state.
  std::vector<std::unique_ptr<NodeState>> nodes_;  // per node; null until touched
  std::unique_ptr<storage::LayerStore> bb_store_;

  // Metadata state.
  std::unique_ptr<meta::DistributedMetadataService> metadata_;
  std::deque<sim::Mutex> md_queue_;    // per server service queue; a deque never moves them
  std::vector<MdServerLoad> md_load_;  // per server

  // Namespace.
  std::map<std::string, storage::FileId> names_;
  std::vector<std::unique_ptr<FileInfo>> files_;

  // Extensions.
  std::set<int> failed_nodes_;
  Bytes replicated_bytes_ = 0;
  int lost_reads_ = 0;
  Bytes lost_bytes_ = 0;
  // Union of already-counted lost VA ranges per (file, producer): va -> end.
  std::map<std::pair<storage::FileId, ProducerId>, std::map<Bytes, Bytes>> lost_extents_;

  // Fault-injection & recovery.
  const fault::Injector* faults_ = nullptr;
  Rng retry_rng_;
  Bytes replication_backlog_ = 0;
  Bytes restriped_bytes_ = 0;
  int flush_retries_ = 0;
  Time backoff_seconds_ = 0.0;
  Bytes safe_mode_bytes_ = 0;
  std::size_t repartitioned_records_ = 0;
  Bytes promoted_bytes_ = 0;
  int read_cache_hits_ = 0;

  FlushStats flush_stats_;
};

}  // namespace uvs::univistor
