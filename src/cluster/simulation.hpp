// Multi-tenant cluster simulation: a pending queue + pluggable scheduler
// (scheduler.hpp) driving full per-job storage-system runs over one shared
// simulated machine.
//
// Each admitted job builds its own univistor::UniviStor instance (or
// Lustre baseline driver), launches its client program on the
// scheduler-allocated node subset, runs its workload, and drains its
// flushes; jobs contend physically through the shared burst buffer, OSTs,
// NICs and per-node CPU schedulers. Burst-buffer reservations are
// DataWarp-style per-job grants enforced via Config::bb_capacity_limit —
// a job granted less than it writes spills the excess synchronously to
// the PFS.
//
// QoS per tenant: wait, stretch (turnaround over the job's memoized
// contention-free solo run), and BB drain-interference seconds (flush
// drain beyond the solo drain). Everything is deterministic for a given
// (mix, policy): same seed -> identical job trace JSON.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/job.hpp"
#include "src/cluster/scheduler.hpp"
#include "src/h5lite/h5file.hpp"
#include "src/obs/sketch.hpp"
#include "src/obs/slo.hpp"
#include "src/sim/event.hpp"
#include "src/univistor/config.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

namespace uvs::fault {
class Injector;
}

namespace uvs::cluster {

/// Always-on per-tenant telemetry: bounded-memory quantile sketches over
/// stretch/wait per tenant class, SLO burn-rate tracking, and tail-based
/// span retention. Feeding happens at job completion only (pure
/// observation — no engine events, no RNG), so same-seed runs stay
/// bit-identical with telemetry on or off.
struct TelemetryOptions {
  bool enabled = false;
  /// SLOs evaluated per tenant class and cluster-wide; empty means
  /// obs::DefaultSloSpecs().
  std::vector<obs::SloSpec> slos;
};

struct ClusterOptions {
  Policy policy = Policy::kBbAware;
  /// Template for every job's UniviStor instance; first_cache_layer and
  /// bb_capacity_limit are overridden per job.
  univistor::Config base_config;
  /// Client ranks per allocated node (nodes_needed = ceil(procs / ppn)).
  int procs_per_node = 4;
  /// Worker threads for the solo-baseline warmup (each distinct job shape
  /// is one full run on a private engine — embarrassingly parallel).
  /// Results merge in deterministic first-appearance order, so cluster
  /// traces, QoS tables and golden digests are bit-identical at any worker
  /// count. Resolved by sim::ResolveWorkers: 0 means one per hardware
  /// thread, no count exceeds the hardware threads, and one worker runs
  /// the warmup on the calling thread.
  int solo_workers = 1;
  TelemetryOptions telemetry;
};

class ClusterSim {
 public:
  ClusterSim(workload::Scenario& scenario, std::vector<JobSpec> jobs,
             ClusterOptions options);
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;
  ~ClusterSim();

  /// Routes the injector's node crashes to the jobs actually placed on
  /// the crashed node (and degradation windows to the shared hardware).
  /// Call before Run(); the injector must outlive the ClusterSim.
  void AttachInjector(fault::Injector& injector);

  /// Precomputes the memoized solo baselines without starting the cluster
  /// run — one full contention-free run per distinct job shape, fanned
  /// across ClusterOptions::solo_workers threads. Run() calls this lazily;
  /// exposed so benches can time the warmup in isolation. Idempotent.
  void WarmSoloBaselines();

  /// Precomputes solo baselines, schedules arrivals, drains the engine.
  void Run();

  const std::vector<JobQos>& qos() const { return qos_; }
  QosSummary summary() const { return Summarize(qos_); }
  /// Deterministic JSON job trace + QoS rollup (schema
  /// uvs-cluster-trace-v1).
  std::string JobTraceJson() const;

  int job_count() const { return static_cast<int>(jobs_.size()); }
  int arrived_jobs() const { return arrived_; }
  int completed_jobs() const { return completed_; }
  const JobSpec& spec(int job) const { return jobs_.at(static_cast<std::size_t>(job)).spec; }
  /// The job's UniviStor instance; nullptr before start or for Lustre jobs.
  const univistor::UniviStor* system(int job) const;
  bool JobOnNode(int job, int node) const;

  // --- telemetry ---------------------------------------------------------
  bool telemetry_enabled() const { return options_.telemetry.enabled; }
  /// Tenant class key a job feeds its telemetry under ("system/kind").
  static std::string TenantKey(const JobSpec& spec);
  /// nullptr before the tenant's first completion (or telemetry off).
  const obs::QuantileSketch* TenantStretchSketch(const std::string& tenant) const;
  /// Cluster-wide distributions, built by Merge()-ing every tenant sketch.
  obs::QuantileSketch ClusterStretchSketch() const;
  obs::QuantileSketch ClusterWaitSketch() const;
  const std::vector<obs::SloTracker>& cluster_slos() const { return cluster_slos_; }
  /// The "telemetry" run-report block (univistor.telemetry.v1): per-tenant
  /// sketch summaries plus the merged cluster-wide rollup. Deterministic.
  std::string TelemetryJson() const;
  /// The "slo" run-report block (univistor.slo.v1): per-tenant and
  /// cluster-wide trackers with burn-rate figures and verdicts.
  std::string SloJson() const;

  Bytes bb_capacity() const { return bb_capacity_; }
  /// High-water mark of concurrently reserved BB bytes (conservation:
  /// never exceeds bb_capacity()).
  Bytes peak_bb_reserved() const { return peak_bb_reserved_; }
  /// Generous bound by which every job of the mix must have finished (the
  /// starvation invariant): last arrival + a serial-execution bound over
  /// memoized solo times with a contention allowance.
  Time StarvationHorizon() const;

 private:
  /// One job's live storage system + workload state.
  struct JobState {
    JobSpec spec;
    std::vector<int> nodes;   // allocation (node indices)
    Bytes bb_grant = 0;
    Time est_finish = 0;
    Time solo_elapsed = 0;
    Time solo_flush_wait = 0;
    Time client_done = -1;
    Time finished = -1;
    bool started = false;
    bool completed = false;
    std::unique_ptr<sim::Event> start_event;
    workload::SystemUnderTest sut;
    std::vector<std::unique_ptr<h5lite::H5File>> files;
    std::unique_ptr<workload::VpicRun> vpic;
    vmpi::ProgramId program = -1;
    int ranks_left = 0;
    std::unique_ptr<sim::Event> ranks_done;
  };

  struct SoloStats {
    Time elapsed = 0;
    Time flush_wait = 0;
  };

  /// Everything that shapes one solo-baseline run (and its memo key).
  struct SoloShape {
    std::string key;
    int width = 1;        // nodes the solo run spreads over
    Bytes bb_grant = 0;   // clamped BB demand the solo run is granted
  };

  int NodesNeeded(const JobSpec& spec) const;
  Bytes ClampedDemand(const JobSpec& spec) const;
  SoloShape ShapeOf(const JobSpec& spec) const;
  void PrecomputeSolo();
  /// Runs `spec` alone on a private engine with the same cluster params.
  /// Pure (reads only immutable cluster/option state, writes nothing
  /// shared), so distinct shapes run concurrently on worker threads; the
  /// result is a function of the shape alone, never of the thread that
  /// computed it.
  SoloStats SoloRunUncached(const JobSpec& spec, const SoloShape& shape);

  sim::Task JobLifecycle(int idx);
  /// Builds the job's system + client program on `sc` and runs the
  /// workload to client completion plus flush drain. `live` wires crashed
  /// nodes and the injector in; solo baselines pass false.
  sim::Task ExecuteJob(workload::Scenario& sc, JobState& job, bool live);
  static sim::Task MicroRank(JobState& job, int rank, bool read_back);

  void EnqueueAndSchedule(int idx);
  void TrySchedule();
  void OnJobFinish(int idx);
  void OnNodeCrash(int node);
  int AliveNodes() const;

  /// Per-tenant-class telemetry state (key: TenantKey()).
  struct TenantTelemetry {
    obs::QuantileSketch stretch;
    obs::QuantileSketch wait;
    std::vector<obs::SloTracker> slos;  // parallel to options_.telemetry.slos
  };

  /// Feeds sketches and SLO trackers from job `idx`'s final QoS record.
  /// Pure observation at completion time: no engine events, no RNG.
  void RecordTelemetry(int idx);
  /// Recorder prune hook: drop the rank and metadata-server spans of
  /// completed jobs that are neither in the worst stretch decile nor SLO
  /// violators. Returns spans freed.
  std::size_t PruneSpans(obs::Recorder& rec);
  /// Job index a span's track belongs to, or -1 if not attributable.
  int SpanJob(const obs::Track& track) const;

  workload::Scenario* scenario_;
  ClusterOptions options_;
  fault::Injector* injector_ = nullptr;

  std::vector<JobState> jobs_;
  std::vector<JobQos> qos_;
  std::vector<int> pending_;  // job indices, arrival order
  std::vector<char> node_free_;
  std::vector<char> node_alive_;
  Bytes bb_capacity_ = 0;
  Bytes bb_reserved_ = 0;
  Bytes peak_bb_reserved_ = 0;
  int arrived_ = 0;
  int completed_ = 0;
  bool solo_warmed_ = false;
  std::map<std::string, SoloStats> solo_memo_;

  // Telemetry (populated only when options_.telemetry.enabled).
  std::map<std::string, TenantTelemetry> tenants_;
  std::vector<obs::SloTracker> cluster_slos_;
  std::vector<char> job_slo_violated_;
  /// Live program id (clients and storage servers) -> job index, for
  /// attributing rank and metadata-server spans in the tail-retention prune
  /// hook (solo baseline programs are never entered).
  std::map<int, int> program_job_;
  bool prune_hook_set_ = false;
};

}  // namespace uvs::cluster
