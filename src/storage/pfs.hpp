// Lustre-like parallel file system semantics over the OST device array:
// striped files, extent-lock contention for shared-file access, per-OST
// synchronization overhead, and coordinated vs uncoordinated request
// direction (§II-D's load-balance discussion).
//
// Timing model per Write/Read:
//  * a synchronization delay proportional to the number of distinct OSTs
//    the caller contacts (stripe-count overhead [28], [29]);
//  * the payload moves through the caller node's NIC pool and the target
//    OST pools concurrently (hose model), with the per-OST bytes inflated
//    by an extent-lock factor that grows with the number of concurrent
//    writers sharing the file — unless the layout is file-per-process.
//  * uncoordinated mode directs each stream to a random OST of the file's
//    target set (the paper's "write requests are randomly directed to
//    storage units"), producing balls-into-bins stragglers; coordinated
//    mode follows the stripe layout exactly.
//
// Erasure coding (StripeConfig::parity_shards > 0; see docs/FAULTS.md):
// each stripe is k data + m parity shards on distinct OSTs. Partial-stripe
// writes pay a read-modify-write cycle (read old data+parity, recompute,
// write back — an extra OST round trip and a larger lock footprint);
// degraded reads reconstruct from any k surviving shards while at most m
// shards of a stripe are unavailable; failed OSTs rebuild onto survivors;
// a scrub pass walks stripes verifying parity and repairing latent errors.
// The simulator moves no payload, so per-stripe shard *versions* stand in
// for content: every shard-write leg applies its version when the device
// leg completes, which makes torn writes (crash mid-write) visible as a
// parity/data version mismatch — exactly what the crash-point-sweep
// battery in tests/storage_ec_test.cpp asserts scrub can always repair.
// The byte-level codec this models is src/storage/erasure.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/units.hpp"
#include "src/hw/cluster.hpp"
#include "src/obs/recorder.hpp"
#include "src/placement/striping.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace uvs::storage {

struct StripeConfig {
  Bytes stripe_size = 1_MiB;
  int stripe_count = 1;
  /// First OST of the layout; -1 picks one at random at Create time (the
  /// Lustre default).
  int ost_offset = -1;
  /// Parity shards per stripe (m). 0 keeps plain striping; > 0 turns the
  /// file erasure-coded with stripe_count data shards (k) and m parity
  /// shards per stripe, clamped so k + m distinct OSTs exist.
  int parity_shards = 0;
};

enum class AccessLayout {
  /// Many writers, interleaved extents in one file: full lock penalty.
  kSharedInterleaved,
  /// Writers own disjoint stripe-aligned ranges: mild lock penalty.
  kAlignedRanges,
  /// One file per writer: no lock conflicts.
  kFilePerProcess,
};

class Pfs {
 public:
  using FileHandle = int;

  explicit Pfs(hw::Cluster& cluster);

  FileHandle Create(std::string name, StripeConfig stripe);
  Result<FileHandle> Lookup(const std::string& name) const;
  Bytes FileSize(FileHandle file) const;
  const StripeConfig& Stripe(FileHandle file) const;
  int ost_count() const;

  struct AccessOptions {
    AccessLayout layout = AccessLayout::kSharedInterleaved;
    /// Explicit OST targets (adaptive striping passes the server's
    /// distinct set); empty uses the file's stripe layout.
    std::vector<int> target_osts;
    /// false = requests randomly directed within the target set.
    bool coordinated = true;
    /// Erasure-coded files only: serve reads whose shard OST failed by
    /// reconstructing from k surviving shards (extra device traffic). Off,
    /// reads skip reconstruction and just serve the surviving shards.
    bool degraded_reads = true;
    /// Causal parent of this access's spans (obs::attribution DAG).
    obs::SpanRef parent;
  };

  struct StreamPlan {
    /// Device streams (bandwidth legs), coalesced per OST.
    std::vector<std::pair<int, Bytes>> streams;
    /// Distinct OSTs the caller must synchronize with — min(stripe
    /// targets, stripe pieces); NOT reduced by stream coalescing, because
    /// the lock/connection handshakes happen per target regardless.
    int sync_targets = 0;
  };

  /// Writes `len` bytes at `offset` from compute node `node`.
  sim::Task Write(FileHandle file, Bytes offset, Bytes len, int node, AccessOptions options);
  sim::Task Read(FileHandle file, Bytes offset, Bytes len, int node, AccessOptions options);

  /// Concurrent writer count on `file` right now (tests/introspection).
  int ActiveWriters(FileHandle file) const;
  /// Total Write calls issued against `file` so far.
  int WriteCalls(FileHandle file) const;
  /// Highest concurrent writer count ever observed on `file`.
  int PeakWriters(FileHandle file) const;

  /// Lock-overhead multiplier for `writers` concurrent writers (>= 1.0).
  double LockInflation(AccessLayout layout, int writers, bool read) const;

  // --- Erasure coding: failures, rebuild, scrub (docs/FAULTS.md). -------

  struct EcScrubReport {
    std::uint64_t stripes_checked = 0;
    /// Stripes whose parity snapshot disagrees with the applied data
    /// versions (torn write: a crash landed between shard-write legs).
    std::uint64_t torn = 0;
    /// Latent-error flags encountered (silent media corruption).
    std::uint64_t latent = 0;
    /// Stripes fixed: parity recomputed and/or latent shards rewritten.
    std::uint64_t repaired = 0;
    /// Skipped by a live scrub pass because writes were still in flight.
    std::uint64_t busy = 0;
    /// Stripes with fewer than k intact shards: data loss.
    std::uint64_t unrecoverable = 0;
  };

  struct EcStats {
    std::uint64_t rmw_stripes = 0;   // partial stripes that paid the RMW cycle
    Bytes rmw_read_bytes = 0;        // RMW read-phase device traffic
    Bytes parity_bytes = 0;          // parity writes (write amplification)
    std::uint64_t degraded_reads = 0;
    Bytes degraded_read_bytes = 0;   // reconstruction reads beyond the request
    Bytes rebuilt_bytes = 0;         // shards rewritten by RebuildOst
    Bytes lost_bytes = 0;            // written bytes with > m shards gone
    std::uint64_t latent_injected = 0;
    std::uint64_t scrub_passes = 0;
    std::uint64_t scrub_stripes = 0;
    std::uint64_t scrub_repairs = 0;
  };

  /// Permanent OST loss: every erasure-coded shard homed there becomes
  /// unavailable until RebuildOst relocates it. Plain-striped files are
  /// not tracked (they have no redundancy model to account against).
  void FailOst(int ost);
  int failed_ost_count() const;
  /// True once any stripe ever had more than its m shards dead or
  /// latent-corrupt at once — the moment lost bytes become legitimate.
  bool ec_redundancy_exceeded() const { return ec_redundancy_exceeded_; }

  /// Flags one written shard homed on `ost` as silently corrupt (latent
  /// error: reads do NOT notice, only scrub detects and repairs it).
  /// Returns false when no written erasure-coded shard lives there.
  bool InjectLatentError(int ost);

  /// Background rebuild of a failed OST: reconstructs every written shard
  /// homed there from k survivors onto a healthy OST (charged as k shard
  /// reads + 1 shard write per stripe through the device pools).
  sim::Task RebuildOst(int ost);

  /// One paced background scrub pass on the sim clock: reads every
  /// materialized stripe's live shards, verifies parity consistency,
  /// recomputes torn parity and rewrites latent shards (while at most m
  /// are gone). `stripe_interval` spaces consecutive stripes.
  sim::Task ScrubPass(Time stripe_interval = 0.0);

  /// Instant synchronous scrub-and-repair (no simulated time): what the
  /// crash-point sweep runs after halting mid-run. Data on disk is
  /// authoritative — abandoned write intents are discarded and parity is
  /// recomputed from the applied shard versions.
  EcScrubReport ScrubAllNow();

  /// Verify-only (no repair, no time): the testkit invariant probe.
  EcScrubReport VerifyParity() const;

  const EcStats& ec_stats() const { return ec_stats_; }
  Bytes ec_lost_bytes() const { return ec_stats_.lost_bytes; }

 private:
  /// Per-stripe shard bookkeeping for erasure-coded files. `version` is
  /// what the devices hold, `pending` what planned writes intend; a parity
  /// shard is consistent when its snapshot equals `version`. All updates
  /// are element-wise max (writes are planned in order, applied as their
  /// device legs complete), so any crash point leaves a state scrub can
  /// repair by declaring the applied versions authoritative.
  struct EcStripe {
    std::vector<std::uint32_t> version;              // k applied data versions
    std::vector<std::uint32_t> pending;              // k planned data versions
    std::vector<std::vector<std::uint32_t>> parity;  // m snapshots of `version`
    std::vector<int> home;                           // k+m current shard OSTs
    std::vector<bool> latent;                        // k+m silent-corruption flags
    bool touched() const;
  };

  struct FileInfo {
    std::string name;
    StripeConfig stripe;
    Bytes size = 0;
    int active_writers = 0;
    int active_readers = 0;
    int write_calls = 0;
    int peak_writers = 0;
    // Erasure-coded state (stripe.parity_shards > 0 only).
    placement::EcLayout ec_layout;
    std::map<std::uint64_t, EcStripe> ec_stripes;
    /// Serializes the read phase of overlapping partial-stripe RMWs.
    std::unique_ptr<sim::Mutex> rmw_mutex;
  };

  /// One version application carried by a device write leg.
  struct EcApplyOp {
    EcStripe* stripe = nullptr;
    int shard = 0;                        // 0..k-1 data, k..k+m-1 parity
    std::uint32_t target = 0;             // data: version to apply
    std::vector<std::uint32_t> snapshot;  // parity: data snapshot to apply
  };

  struct EcPhase {
    std::vector<std::pair<int, Bytes>> streams;   // per-OST coalesced
    std::vector<std::vector<EcApplyOp>> applies;  // aligned with streams
    int sync_targets = 0;
    Bytes bytes = 0;

    void Add(int ost, Bytes bytes, std::vector<EcApplyOp> ops = {});
  };

  struct EcPlan {
    EcPhase read;
    EcPhase write;
    bool rmw = false;
  };

  sim::Task Access(FileHandle file, Bytes offset, Bytes len, int node, AccessOptions options,
                   bool read);
  sim::Task PlainAccess(FileHandle file, Bytes offset, Bytes len, int node,
                        AccessOptions options, bool read);
  sim::Task EcAccess(FileHandle file, Bytes offset, Bytes len, int node, AccessOptions options,
                     bool read);
  sim::Task EcWriteLeg(int ost, Bytes bytes, double inflation, obs::SpanRef parent,
                       std::vector<EcApplyOp> ops);
  /// Distributes `len` across the chosen OSTs.
  StreamPlan PlanStreams(const FileInfo& info, Bytes offset, Bytes len,
                         const AccessOptions& options);

  EcStripe& MaterializeStripe(FileInfo& info, std::uint64_t stripe);
  EcPlan PlanEcWrite(FileHandle file, FileInfo& info, Bytes offset, Bytes len);
  EcPlan PlanEcRead(FileHandle file, FileInfo& info, Bytes offset, Bytes len,
                    const AccessOptions& options);
  static void ApplyEcOps(const std::vector<EcApplyOp>& ops);
  /// Marks redundancy exceeded if `stripe` has more than m shards dead or
  /// latent; returns the number of intact shards.
  int NoteStripeHealth(const FileInfo& info, const EcStripe& stripe);
  /// Counts a shard's span as lost once per (file, stripe, shard).
  void CountLost(FileHandle file, const FileInfo& info, std::uint64_t stripe, int shard);
  EcScrubReport ScrubSweep(bool repair);

  hw::Cluster* cluster_;
  // unique_ptr for address stability: Access() coroutines hold references
  // across suspension points while new files (e.g. spill logs) are created.
  std::vector<std::unique_ptr<FileInfo>> files_;

  std::vector<bool> ost_failed_;
  int failed_osts_ = 0;
  bool ec_redundancy_exceeded_ = false;
  EcStats ec_stats_;
  /// (file, stripe, shard) keys already counted into lost_bytes.
  std::set<std::uint64_t> ec_lost_counted_;
};

}  // namespace uvs::storage
