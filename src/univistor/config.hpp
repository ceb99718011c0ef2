// UniviStor configuration: every optimization the paper evaluates is a
// toggle here so the benches can ablate them (IA, COC, ADPT, LA, workflow).
#pragma once

#include "src/common/units.hpp"
#include "src/hw/params.hpp"
#include "src/placement/striping.hpp"

namespace uvs::univistor {

struct Config {
  /// UniviStor server processes per compute node (paper default in the
  /// evaluation: 2, one per NUMA socket).
  int servers_per_node = 2;

  /// Collective open/close: only the root rank performs the metadata
  /// operations and broadcasts the result (§II-F). Also covers the HDF5
  /// metadata-region optimization.
  bool collective_open_close = true;

  /// Adaptive data striping for the server-side flush (§II-D). Off means
  /// the widely-used default: stripe across all OSTs, uncoordinated.
  bool adaptive_striping = true;

  /// Location-aware read service (§II-B4): local metadata buffer consulted
  /// first; BB segments fetched directly without a server hop.
  bool location_aware_reads = true;

  /// Migrate co-located clients off server cores during flushes (§II-C).
  /// Placement policy itself is chosen when the vmpi::Runtime is built.
  bool interference_aware_flush = true;

  /// Flush cached data to the PFS when a write-mode file closes.
  bool flush_on_close = true;

  /// First layer of the DHP cascade: kDram uses DRAM -> [SSD] -> BB -> PFS
  /// (the paper's UniviStor/DRAM); kSharedBurstBuffer starts at the BB
  /// (UniviStor/BB); kPfs writes straight to disk (UniviStor/Disk).
  hw::Layer first_cache_layer = hw::Layer::kDram;

  /// Log-file chunk size (§II-B1).
  Bytes chunk_size = 32_MiB;

  /// Burst-buffer bytes this instance may occupy (a DataWarp-style per-job
  /// reservation when several jobs share one BB). 0 means the whole BB.
  /// A limit below one chunk drops the BB layer from the cascade entirely,
  /// so writes spill straight to the PFS.
  Bytes bb_capacity_limit = 0;

  /// Metadata offset-range size (§II-B3).
  Bytes metadata_range_size = 8_MiB;

  /// Adaptive striping parameters (alpha, Smax).
  placement::StripingParams striping;

  // --- Future-work extensions the paper sketches in §V. ---

  /// Resilience for volatile layers: asynchronously replicate DRAM/SSD
  /// cached data to the shared burst buffer, so a compute-node failure
  /// does not lose checkpoints that have not been flushed yet.
  bool replicate_volatile = false;

  /// Proactive placement based on usage: segments read from a slow or
  /// remote location are promoted into a per-node DRAM read cache, so
  /// repeated analysis passes hit locally.
  bool promote_hot_reads = false;
  Bytes read_cache_capacity_per_node = 4_GiB;

  /// Active failure recovery (see docs/FAULTS.md). Off, node failure is
  /// pure loss (legacy FailNode semantics); on, the system retries flushes
  /// through fault windows (with fault::BackoffPolicy's defaults),
  /// re-stripes replica-covered extents of a dead node to the PFS,
  /// repartitions metadata off dead servers, and can fall back to
  /// write-through "safe mode" under replication lag.
  struct RecoveryConfig {
    bool enabled = false;
    /// Write-through safe mode: when more than this many bytes of dirty
    /// volatile data await replication, writes block on their replica
    /// copy instead of acknowledging early. 0 disables safe mode.
    Bytes safe_mode_dirty_limit = 0;
  };
  RecoveryConfig recovery;

  /// Erasure-coded PFS files (see docs/FAULTS.md). On, every PFS
  /// destination UniviStor creates is striped k+m: partial-stripe flushes
  /// pay the read-modify-write cycle, reads survive up to m failed OSTs by
  /// reconstruction, and OST failures trigger rebuild when recovery is
  /// enabled.
  struct EcConfig {
    bool enabled = false;
    int data_shards = 4;    // k
    int parity_shards = 2;  // m
  };
  EcConfig ec;
};

}  // namespace uvs::univistor
