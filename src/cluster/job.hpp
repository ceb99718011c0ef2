// Multi-tenant job model (ROADMAP item 1): every cluster job is a full
// application run — its own UniviStor instance (or Lustre baseline) over
// the one shared hw:: machine — so concurrent jobs contend physically for
// the burst buffer, the OSTs, the NICs and the per-node CPU schedulers.
//
// The scheduling-policy comparison follows the burst-buffer job-scheduling
// literature (arXiv 2111.10200): FCFS and EASY-backfill are BB-blind and
// grant a job whatever unreserved BB bytes happen to remain, while the
// BB-aware policy holds a job back until its full BB demand fits — trading
// queue wait against synchronous PFS spill.
#pragma once

#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/workload/deployment.hpp"

namespace uvs::cluster {

enum class JobKind : std::uint8_t {
  kMicroWrite,     // shared-file write benchmark
  kMicroReadBack,  // write then read back
  kVpic,           // multi-step VPIC-IO checkpoints
};
const char* JobKindName(JobKind kind);

/// Static description of one job in a mix. Sampled (arrival.hpp), parsed
/// from a trace line, or built directly by tests.
struct JobSpec {
  int id = 0;
  Time arrival = 0;
  JobKind kind = JobKind::kMicroWrite;
  workload::SystemKind system = workload::SystemKind::kUniviStor;
  int procs = 4;                 // client ranks
  Bytes bytes_per_rank = 4_MiB;  // per step for kVpic
  int steps = 1;                 // kVpic checkpoint steps
  Time compute_time = 0;         // kVpic inter-step compute
  /// First cache layer of the job's UniviStor instance, an hw::Layer
  /// value: 0 = DRAM cascade, 2 = burst buffer first (BB-bound), 3 =
  /// straight to PFS.
  int first_layer = 0;
  /// Erasure-code this job's PFS files (UniviStor only): the job's config
  /// enables Config::ec so its flushes stripe k data + m parity shards.
  bool ec = false;

  std::string Name() const { return "job" + std::to_string(id); }
  /// Total bytes the job writes.
  Bytes TotalBytes() const {
    return static_cast<Bytes>(procs) * bytes_per_rank * static_cast<Bytes>(steps);
  }
  /// Burst-buffer reservation the job asks the cluster scheduler for.
  /// Zero for jobs that never touch the BB (Lustre, PFS-direct).
  Bytes BbDemand() const {
    if (system == workload::SystemKind::kLustre || first_layer >= 3) return 0;
    return TotalBytes();
  }

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// Per-job QoS outcome, the paper-style tenant metrics (stretch = bounded
/// slowdown against the job's own contention-free solo run).
struct JobQos {
  int id = 0;
  Time arrival = 0;
  Time start = -1;   // -1 while queued
  Time finish = -1;  // -1 while running or queued
  Time solo_time = 0;
  Bytes bb_demand = 0;
  Bytes bb_granted = 0;
  int nodes_granted = 0;
  Bytes bytes_written = 0;
  Bytes lost_bytes = 0;
  /// Seconds the job's flush drain took beyond its solo-run drain: BB
  /// drain-interference from co-running tenants.
  Time drain_interference = 0;

  bool started() const { return start >= 0; }
  bool completed() const { return finish >= 0; }
  Time wait() const { return started() ? start - arrival : -1; }
  Time turnaround() const { return completed() ? finish - arrival : -1; }
  double stretch() const {
    if (!completed()) return -1;
    return turnaround() / (solo_time > 0 ? solo_time : 1e-9);
  }
};

/// Mix-level QoS rollup. Percentiles are exact (sorted-sample) so two runs
/// of the same seed compare bit-identically.
struct QosSummary {
  int jobs = 0;
  int completed = 0;
  double mean_stretch = 0;
  double p50_stretch = 0;
  double p99_stretch = 0;
  double mean_wait = 0;
  double p99_wait = 0;
  Time total_drain_interference = 0;
};

QosSummary Summarize(const std::vector<JobQos>& qos);

/// Exact empirical quantile of `values` (q in [0,1]; nearest-rank).
double Quantile(std::vector<double> values, double q);

}  // namespace uvs::cluster
