// Deterministic scenario generation for the whole-system fuzzer (uvfuzz).
//
// A ScenarioSpec is the complete, serializable description of one random
// end-to-end run: cluster shape, storage system under test, UniviStor
// config toggles, workload mix, and optional failure injection. Specs are
// sampled from a single uint64 seed via common/rng, print as a one-line
// `key=value` string, and parse back — so any fuzzer failure is
// reproducible from either the seed or the (possibly shrunk) spec string.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.hpp"
#include "src/common/units.hpp"
#include "src/workload/deployment.hpp"

namespace uvs::testkit {

enum class FailureMode : std::uint8_t { kNone = 0, kAfterWrites, kDuringFlush, kPlan };

const char* FailureModeName(FailureMode mode);

struct ScenarioSpec {
  std::uint64_t seed = 0;

  // --- Cluster shape. ---
  int procs = 8;
  int procs_per_node = 4;
  bool has_ssd = false;
  Bytes ssd_capacity = 32_MiB;           // per node, when present
  Bytes dram_cache_capacity = 32_MiB;    // per node
  int bb_nodes = 2;
  Bytes bb_capacity_per_node = 64_MiB;
  int osts = 16;

  // --- System under test. ---
  workload::SystemKind system = workload::SystemKind::kUniviStor;

  // --- UniviStor config toggles (ignored for the baselines). ---
  bool ia = true;      // interference-aware flush + placement policy
  bool coc = true;     // collective open/close
  bool adpt = true;    // adaptive striping
  bool la = true;      // location-aware reads
  bool replicate_volatile = false;
  bool promote_hot_reads = false;
  bool flush_on_close = true;
  int first_layer = 0;  // hw::Layer value: 0 DRAM, 2 shared BB, 3 PFS
  Bytes chunk_size = 4_MiB;
  Bytes metadata_range_size = 2_MiB;

  // --- Workload. ---
  workload::WorkloadKind workload = uvs::workload::WorkloadKind::kMicroReadBack;
  Bytes bytes_per_rank = 4_MiB;  // per step for vpic/workflow
  int steps = 2;                 // vpic/workflow only
  double compute_time = 0.0;     // vpic inter-checkpoint sleep (sim seconds)

  // --- Failure injection (§V resilience path). ---
  FailureMode failure = FailureMode::kNone;
  int failed_node = 0;
  /// fault::Plan spec string (docs/FAULTS.md grammar) driving a seed-timed
  /// fault::Injector; set exactly when failure == kPlan.
  std::string fault_plan;
  /// Enables univistor::Config::recovery (retries, re-striping, safe mode).
  bool recovery = false;

  // --- Erasure-coded PFS (univistor only; docs/FAULTS.md). ---
  /// Data shards k; 0 disables erasure coding (plain striping). When > 0,
  /// ec_m must be >= 1 and ec_k + ec_m <= osts. Printed as `ec=K+M`.
  int ec_k = 0;
  /// Parity shards m (redundancy budget per stripe).
  int ec_m = 0;
  /// Run a background scrub pass after the workload (and honor any
  /// `scrub@T` plan events); requires ec_k > 0.
  bool scrub = false;

  // --- Multi-tenant cluster mix (cluster::, jobs > 1). ---
  /// Concurrent jobs in the mix; 1 = the classic single-job run. Each job
  /// gets procs/jobs client ranks of the same workload shape and the mix
  /// runs through cluster::ClusterSim instead of the single-job runner.
  int jobs = 1;
  /// Mean Poisson interarrival in sim seconds; 0 = all jobs arrive at t=0.
  double arrival = 0.0;
  /// Cluster scheduling policy (cluster::Policy): 0 fcfs, 1 easy, 2 bb.
  int csched = 2;

  /// Number of compute nodes this spec's cluster has.
  int Nodes() const { return (procs + procs_per_node - 1) / procs_per_node; }

  /// One-line `key=value ...` form; ParseScenarioSpec inverts it.
  std::string ToString() const;

  /// The exact command that replays this spec.
  std::string ReproCommand() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Samples a random but valid spec from `seed` alone (deterministic:
/// identical seeds produce identical specs on every platform).
ScenarioSpec SampleScenario(std::uint64_t seed);

/// Parses the ToString() form; unknown keys and malformed values fail.
Result<ScenarioSpec> ParseScenarioSpec(const std::string& text);

}  // namespace uvs::testkit
