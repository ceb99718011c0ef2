// Tier-1 battery for the multi-tenant cluster simulation (cluster::):
// scheduler policy unit tests, arrival sampling/parsing, deterministic
// same-seed replays, conservation invariants, the BB-aware-vs-FCFS QoS
// ordering on two reference mixes, the node-crash targeting regression (a
// crash only kills extents of jobs placed on that node), job-scoped
// process lifetime (a finished tenant leaves the node schedulers), and one
// trace lane per tenant metadata server.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/arrival.hpp"
#include "src/cluster/job.hpp"
#include "src/cluster/scheduler.hpp"
#include "src/cluster/simulation.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/plan.hpp"
#include "src/hw/params.hpp"
#include "src/obs/recorder.hpp"
#include "src/testkit/invariants.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::cluster {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture: the uvsim --cluster reference machine (testkit scale, so
// the shared burst buffer genuinely binds).

struct MachineShape {
  int procs = 32;
  int ppn = 4;
  Bytes bb_per_node = 128_MiB;
  int osts = 1;
  std::uint64_t seed = 42;
};

workload::ScenarioOptions ShapeOptions(const MachineShape& shape) {
  hw::ClusterParams params = hw::CoriPreset(shape.procs, shape.ppn);
  params.node.cores = 8;
  params.node.dram_cache_capacity = 32_MiB;
  params.bb.bb_nodes = 2;
  params.bb.capacity_per_bb_node = shape.bb_per_node;
  params.pfs.osts = shape.osts;
  params.seed = shape.seed;
  workload::ScenarioOptions options;
  options.procs = shape.procs;
  options.policy = sched::PlacementPolicy::kInterferenceAware;
  options.cluster_params = params;
  return options;
}

ClusterOptions ShapeClusterOptions(Policy policy, const MachineShape& shape) {
  ClusterOptions options;
  options.policy = policy;
  options.procs_per_node = shape.ppn;
  // Jobs at this scale write 1-8 MiB per rank; the Cori-scale 32 MiB chunk
  // would drop the BB layer even under a full reservation.
  options.base_config.chunk_size = 1_MiB;
  return options;
}

/// Runs `jobs` under `policy` on a fresh machine and returns the sim.
struct MixRun {
  std::unique_ptr<workload::Scenario> scenario;
  std::unique_ptr<ClusterSim> sim;
};

MixRun RunMix(std::vector<JobSpec> jobs, Policy policy, const MachineShape& shape = {}) {
  MixRun run;
  run.scenario = std::make_unique<workload::Scenario>(ShapeOptions(shape));
  run.sim = std::make_unique<ClusterSim>(*run.scenario, std::move(jobs),
                                         ShapeClusterOptions(policy, shape));
  run.sim->Run();
  return run;
}

// ---------------------------------------------------------------------------
// Scheduler policy unit tests (pure Decide()).

SchedJob Pending(int id, int nodes, Bytes bb, Time est) {
  return SchedJob{.id = id, .nodes_needed = nodes, .bb_demand = bb, .est_runtime = est};
}

TEST(Scheduler, FcfsHeadBlocksQueue) {
  SchedState state;
  state.free_nodes = 2;
  state.bb_free = 100;
  state.pending = {Pending(0, 4, 0, 1), Pending(1, 1, 0, 1)};
  // Head needs 4 nodes, only 2 free: strict FCFS admits nothing, even
  // though job 1 would fit.
  EXPECT_TRUE(Decide(state, Policy::kFcfs).empty());
}

TEST(Scheduler, FcfsGrantsWhateverBbRemains) {
  SchedState state;
  state.free_nodes = 4;
  state.bb_free = 10;
  state.pending = {Pending(0, 1, 100, 1)};
  const auto admissions = Decide(state, Policy::kFcfs);
  ASSERT_EQ(admissions.size(), 1u);
  EXPECT_EQ(admissions[0].id, 0);
  EXPECT_EQ(admissions[0].bb_grant, 10u);  // partial: the job will spill
}

TEST(Scheduler, BbAwareWithholdsUntilDemandFits) {
  SchedState state;
  state.free_nodes = 4;
  state.bb_free = 10;
  state.pending = {Pending(0, 1, 100, 1)};
  EXPECT_TRUE(Decide(state, Policy::kBbAware).empty());
  state.bb_free = 100;
  const auto admissions = Decide(state, Policy::kBbAware);
  ASSERT_EQ(admissions.size(), 1u);
  EXPECT_EQ(admissions[0].bb_grant, 100u);  // full demand, never spills
}

TEST(Scheduler, EasyBackfillsAroundBlockedHead) {
  SchedState state;
  state.now = 0;
  state.free_nodes = 2;
  state.bb_free = 0;
  state.running = {RunningJob{.est_finish = 10, .nodes = 4, .bb_reserved = 0}};
  state.pending = {Pending(0, 4, 0, 5),   // head: must wait for the running job
                   Pending(1, 2, 0, 5),   // finishes by t=5 < shadow 10: backfill
                   Pending(2, 2, 0, 50)}; // would push past the shadow: blocked
  const auto admissions = Decide(state, Policy::kEasyBackfill);
  ASSERT_EQ(admissions.size(), 1u);
  EXPECT_EQ(admissions[0].id, 1);
  // Strict FCFS admits nothing here.
  EXPECT_TRUE(Decide(state, Policy::kFcfs).empty());
}

TEST(Scheduler, NeverOverAdmits) {
  for (const Policy policy : {Policy::kFcfs, Policy::kEasyBackfill, Policy::kBbAware}) {
    SchedState state;
    state.free_nodes = 3;
    state.bb_free = 100;
    state.pending = {Pending(0, 2, 60, 1), Pending(1, 2, 60, 1), Pending(2, 1, 10, 1)};
    int nodes = 0;
    Bytes bb = 0;
    for (const Admission& adm : Decide(state, policy)) {
      nodes += adm.nodes;
      bb += adm.bb_grant;
    }
    EXPECT_LE(nodes, state.free_nodes) << PolicyName(policy);
    EXPECT_LE(bb, state.bb_free) << PolicyName(policy);
  }
}

TEST(Scheduler, PolicyNamesRoundTrip) {
  for (const Policy policy : {Policy::kFcfs, Policy::kEasyBackfill, Policy::kBbAware}) {
    const auto parsed = ParsePolicy(PolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParsePolicy("sjf").ok());
}

// ---------------------------------------------------------------------------
// Arrival sampling and trace parsing.

TEST(Arrival, SampleJobMixIsDeterministic) {
  MixParams params;
  params.jobs = 6;
  const auto a = SampleJobMix(7, params);
  const auto b = SampleJobMix(7, params);
  const auto c = SampleJobMix(8, params);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i].arrival, a[i - 1].arrival);
}

TEST(Arrival, BbBoundMixesPreferTheBurstBuffer) {
  MixParams params;
  params.jobs = 40;
  params.bb_bound = true;
  int bb_first = 0;
  for (const JobSpec& job : SampleJobMix(3, params)) bb_first += job.first_layer == 2;
  EXPECT_GT(bb_first, 20);  // 0.9 probability per job
}

TEST(Arrival, ParseJobLineRoundTrip) {
  const auto job =
      ParseJobLine("at=0.5 kind=vpic system=univistor procs=8 mb=2 steps=3 compute=0.01 layer=2");
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->arrival, 0.5);
  EXPECT_EQ(job->kind, JobKind::kVpic);
  EXPECT_EQ(job->procs, 8);
  EXPECT_EQ(job->bytes_per_rank, 2_MiB);
  EXPECT_EQ(job->steps, 3);
  EXPECT_EQ(job->first_layer, 2);
}

TEST(Arrival, ParseJobLineRejectsGarbage) {
  EXPECT_FALSE(ParseJobLine("at=0.5").ok());                    // procs missing
  EXPECT_FALSE(ParseJobLine("procs=4").ok());                   // at missing
  EXPECT_FALSE(ParseJobLine("at=0 procs=4 kind=mpi").ok());     // unknown kind
  EXPECT_FALSE(ParseJobLine("at=0 procs=4 quantum=9").ok());    // unknown key
  EXPECT_FALSE(ParseJobLine("at=-1 procs=4").ok());             // negative arrival
  EXPECT_FALSE(ParseJobLine("at=0 procs=8abc").ok());           // trailing garbage
  EXPECT_FALSE(ParseJobLine("at=0.5xyz procs=4").ok());
  EXPECT_FALSE(ParseJobLine("at=nan procs=4").ok());            // non-finite arrival
  EXPECT_FALSE(ParseJobLine("at=inf procs=4").ok());
  EXPECT_FALSE(ParseJobLine("at=0 procs=4 procs=2").ok());      // duplicate key
  EXPECT_FALSE(ParseJobLine("at=0 procs=4 mb=17592186044417").ok());  // wraps in bytes
  EXPECT_FALSE(ParseJobLine("at=0 procs=4 ec=7").ok());         // boolean is 0 or 1
  EXPECT_FALSE(ParseJobLine("at=0 procs=4 layer=1").ok());      // SSD is never first
  EXPECT_FALSE(ParseJobLine("at=0 procs=4 kind=vpic compute=-1").ok());
}

TEST(Arrival, ParseJobTraceSortsAndComments) {
  const auto jobs = ParseJobTrace("# a mix\r\nat=0.2 procs=4\r\n  \nat=0.1 procs=2 # tail\n");
  ASSERT_TRUE(jobs.ok());
  ASSERT_EQ(jobs->size(), 2u);
  EXPECT_EQ((*jobs)[0].arrival, 0.1);
  EXPECT_EQ((*jobs)[0].procs, 2);
  EXPECT_EQ((*jobs)[1].arrival, 0.2);
}

TEST(Qos, QuantileIsExactNearestRank) {
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 0.5), 2);
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 0.99), 4);
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 0.0), 1);
  EXPECT_EQ(Quantile({}, 0.5), 0);
}

// ---------------------------------------------------------------------------
// Same-seed determinism: two independent machines, identical job traces.

TEST(ClusterSim, SameSeedReplaysBitIdentically) {
  MixParams params;
  params.jobs = 8;
  params.bb_bound = true;
  const auto a = RunMix(SampleJobMix(11, params), Policy::kBbAware);
  const auto b = RunMix(SampleJobMix(11, params), Policy::kBbAware);
  EXPECT_EQ(a.sim->JobTraceJson(), b.sim->JobTraceJson());
  const auto c = RunMix(SampleJobMix(13, params), Policy::kBbAware);
  EXPECT_NE(a.sim->JobTraceJson(), c.sim->JobTraceJson());
}

TEST(ClusterSim, ParallelSoloWarmupIsBitIdentical) {
  // The solo-baseline warmup fans distinct job shapes across
  // ClusterOptions::solo_workers pool threads; the memo merges in
  // first-appearance order, so the full cluster run — trace JSON, QoS —
  // must be bit-identical at any worker count.
  MixParams params;
  params.jobs = 10;
  params.bb_bound = true;
  std::string golden;
  for (int workers : {1, 2, 8}) {
    MachineShape shape;
    workload::Scenario scenario(ShapeOptions(shape));
    ClusterOptions options = ShapeClusterOptions(Policy::kBbAware, shape);
    options.solo_workers = workers;
    ClusterSim sim(scenario, SampleJobMix(11, params), options);
    sim.Run();
    if (golden.empty()) {
      golden = sim.JobTraceJson();
      ASSERT_FALSE(golden.empty());
    } else {
      EXPECT_EQ(golden, sim.JobTraceJson()) << "solo_workers=" << workers;
    }
  }
}

// ---------------------------------------------------------------------------
// Conservation invariants across policies and mixes.

void CheckConservation(const MixRun& run) {
  ClusterSim& sim = *run.sim;
  // Every arrived job completes (no lost or starved jobs).
  EXPECT_EQ(sim.arrived_jobs(), sim.job_count());
  EXPECT_EQ(sim.completed_jobs(), sim.job_count());
  EXPECT_LE(run.scenario->engine().Now(), sim.StarvationHorizon());
  // BB reservations never exceed capacity.
  EXPECT_LE(sim.peak_bb_reserved(), sim.bb_capacity());
  testkit::InvariantReport report;
  testkit::CheckQuiescence(run.scenario->engine(), report);
  // Every job retired its clients and servers with it.
  testkit::CheckProcessesRetired(*run.scenario, report);
  // Fair-share totals conserved across all concurrent jobs.
  testkit::CheckPoolConservation(*run.scenario, report);
  for (int j = 0; j < sim.job_count(); ++j) {
    const JobQos& qos = sim.qos()[static_cast<std::size_t>(j)];
    EXPECT_TRUE(qos.completed()) << "job " << j;
    EXPECT_GE(qos.wait(), 0.0) << "job " << j;
    EXPECT_LE(qos.bb_granted, qos.bb_demand > 0 ? qos.bb_demand : qos.bb_granted);
    if (const univistor::UniviStor* sys = sim.system(j)) {
      testkit::CheckUniviStor(*sys, report);
      EXPECT_EQ(sys->lost_bytes(), 0u) << "job " << j << " lost bytes without faults";
      EXPECT_EQ(qos.bytes_written, sim.spec(j).TotalBytes()) << "job " << j;
    }
  }
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ClusterSim, ConservationHoldsAcrossPolicies) {
  MixParams params;
  params.jobs = 8;
  params.bb_bound = true;
  for (const Policy policy : {Policy::kFcfs, Policy::kEasyBackfill, Policy::kBbAware}) {
    CheckConservation(RunMix(SampleJobMix(5, params), policy));
  }
}

TEST(ClusterSim, ConservationHoldsWithLustreTenants) {
  MixParams params;
  params.jobs = 6;
  params.lustre_fraction = 0.5;
  CheckConservation(RunMix(SampleJobMix(21, params), Policy::kBbAware));
}

TEST(ClusterSim, EmitsPerTenantObservability) {
  obs::Recorder recorder;
  recorder.Install();
  MixParams params;
  params.jobs = 4;
  const auto run = RunMix(SampleJobMix(9, params), Policy::kBbAware);
  recorder.Uninstall();
  // One pending + one run span per job on the per-tenant cluster tracks.
  EXPECT_GE(recorder.span_count(), 2u * 4u);
}

TEST(ClusterSim, MetadataServerLanesNeverOverlap) {
  // The uvsim --cluster reference mix (--seed=12 --jobs=12 --bb-bound
  // --bb-mb=128 --osts=1). Every UniviStor tenant numbers its metadata
  // servers from 0 on the same nodes; each server program has its own
  // lanes, so the serialized rpc.service spans on one lane never overlap.
  obs::Recorder recorder;
  recorder.Install();
  MixParams params;
  params.jobs = 12;
  params.bb_bound = true;
  const auto run = RunMix(SampleJobMix(12, params), Policy::kBbAware,
                          MachineShape{.procs = 256, .seed = 12});
  recorder.Uninstall();
  ASSERT_EQ(run.sim->completed_jobs(), 12);
  ASSERT_EQ(recorder.spans_dropped(), 0u);

  std::map<std::uint32_t, std::vector<std::pair<Time, Time>>> lanes;
  recorder.ForEachSpan([&](obs::Recorder::SpanId, const obs::Recorder::SpanEvent& span) {
    if (recorder.track(span).kind == obs::Track::Kind::kMetaServer)
      lanes[span.lane].emplace_back(span.start, span.end);
  });
  std::set<int> programs;
  int overlaps = 0;
  for (auto& [lane, spans] : lanes) {
    programs.insert(recorder.lanes()[lane].program);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      if (spans[i].first < spans[i - 1].second) ++overlaps;
  }
  EXPECT_GT(programs.size(), 1u) << "several tenants' servers served RPCs";
  EXPECT_EQ(overlaps, 0);
}

// ---------------------------------------------------------------------------
// Policy ordering: on BB-bound mixes the BB-aware policy is at least as
// good as FCFS on mean stretch and strictly better at the tail. Two
// reference mixes; the first doubles as the CI golden QoS pin.

void CheckBbAwareBeatsFcfs(std::uint64_t seed) {
  MixParams params;
  params.jobs = 12;
  params.bb_bound = true;
  const auto fcfs = RunMix(SampleJobMix(seed, params), Policy::kFcfs);
  const auto bb = RunMix(SampleJobMix(seed, params), Policy::kBbAware);
  const QosSummary f = fcfs.sim->summary();
  const QosSummary b = bb.sim->summary();
  EXPECT_EQ(f.completed, 12);
  EXPECT_EQ(b.completed, 12);
  EXPECT_LE(b.mean_stretch, f.mean_stretch) << "seed " << seed;
  EXPECT_LT(b.p99_stretch, f.p99_stretch) << "seed " << seed;
}

TEST(PolicyOrdering, BbAwareBeatsFcfsOnReferenceMix) { CheckBbAwareBeatsFcfs(12); }

TEST(PolicyOrdering, BbAwareBeatsFcfsOnSecondMix) { CheckBbAwareBeatsFcfs(3); }

// ---------------------------------------------------------------------------
// Node-crash targeting: a crash mid-flush of job A must only kill extents
// of jobs placed on the crashed node — job B, draining on disjoint nodes,
// loses nothing.

TEST(ClusterSim, NodeCrashOnlyHitsJobsPlacedThere) {
  MachineShape shape;
  shape.procs = 16;  // 4 nodes at ppn=4
  shape.osts = 4;
  std::vector<JobSpec> jobs(2);
  jobs[0].id = 0;
  jobs[0].kind = JobKind::kMicroWrite;
  jobs[0].procs = 8;  // nodes {0, 1}
  jobs[0].bytes_per_rank = 4_MiB;
  jobs[0].first_layer = 0;  // DRAM cascade: volatile extents to lose
  jobs[1] = jobs[0];
  jobs[1].id = 1;
  jobs[1].arrival = 0.001;  // admitted second: nodes {2, 3}

  workload::Scenario scenario(ShapeOptions(shape));
  ClusterSim sim(scenario, jobs, ShapeClusterOptions(Policy::kBbAware, shape));
  // Node 0 dies while both jobs' flushes are in flight (client writes take
  // ~13 ms; the close-triggered flush drains for tens of ms after that).
  const auto plan = fault::ParsePlan("crash@0.02:node=0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  fault::Injector injector(scenario.engine(), *plan);
  sim.AttachInjector(injector);
  injector.Arm();
  sim.Run();

  ASSERT_EQ(sim.completed_jobs(), 2);
  EXPECT_TRUE(sim.JobOnNode(0, 0));
  EXPECT_FALSE(sim.JobOnNode(1, 0));
  const univistor::UniviStor* a = sim.system(0);
  const univistor::UniviStor* b = sim.system(1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // The crash reached job A's instance...
  EXPECT_TRUE(a->NodeFailed(0));
  // ...but never job B's: its extents on nodes {2, 3} all survive.
  EXPECT_FALSE(b->NodeFailed(0));
  EXPECT_EQ(b->lost_bytes(), 0u);
  // Per-job lost-byte accounting still holds under contention: whatever A
  // lost matches its metadata-derived expectation.
  EXPECT_EQ(a->lost_bytes(), testkit::ExpectedLostBytes(*a, scenario.runtime()));
}

/// A job arriving after the crash must not be scheduled onto the dead node.
TEST(ClusterSim, DeadNodesAreNotAllocated) {
  MachineShape shape;
  shape.procs = 16;
  shape.osts = 4;
  std::vector<JobSpec> jobs(2);
  jobs[0].id = 0;
  jobs[0].procs = 4;  // node {0}
  jobs[0].bytes_per_rank = 2_MiB;
  jobs[1].id = 1;
  jobs[1].procs = 4;
  jobs[1].bytes_per_rank = 2_MiB;
  jobs[1].arrival = 0.5;  // long after the crash

  workload::Scenario scenario(ShapeOptions(shape));
  ClusterSim sim(scenario, jobs, ShapeClusterOptions(Policy::kFcfs, shape));
  const auto plan = fault::ParsePlan("crash@0.2:node=2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  fault::Injector injector(scenario.engine(), *plan);
  sim.AttachInjector(injector);
  injector.Arm();
  sim.Run();

  ASSERT_EQ(sim.completed_jobs(), 2);
  EXPECT_FALSE(sim.JobOnNode(1, 2)) << "job 1 was scheduled onto the dead node";
  const univistor::UniviStor* b = sim.system(1);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->lost_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Job-scoped process lifetime.

TEST(ClusterSim, EveryTenantLeavesTheNodeSchedulers) {
  // One tenant of each system, a crash mid-run, and a CFS-placed machine:
  // whatever ran, nothing stays registered once the mix drains.
  MachineShape shape;
  shape.procs = 16;
  shape.osts = 4;
  std::vector<JobSpec> jobs(3);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].id = static_cast<int>(j);
    jobs[j].procs = 4;
    jobs[j].bytes_per_rank = 2_MiB;
    jobs[j].arrival = 0.001 * static_cast<double>(j);
  }
  jobs[1].system = workload::SystemKind::kLustre;
  jobs[2].system = workload::SystemKind::kDataElevator;
  for (const auto policy :
       {sched::PlacementPolicy::kInterferenceAware, sched::PlacementPolicy::kCfs}) {
    workload::ScenarioOptions options = ShapeOptions(shape);
    options.policy = policy;
    workload::Scenario scenario(options);
    ClusterSim sim(scenario, jobs, ShapeClusterOptions(Policy::kFcfs, shape));
    const auto plan = fault::ParsePlan("crash@0.005:node=0");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fault::Injector injector(scenario.engine(), *plan);
    sim.AttachInjector(injector);
    injector.Arm();
    sim.Run();
    ASSERT_EQ(sim.completed_jobs(), 3);
    testkit::InvariantReport report;
    testkit::CheckProcessesRetired(scenario, report);
    testkit::CheckPoolConservation(scenario, report);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST(ClusterSim, ProgramAfterFinishedJobsGetsFreshMachineCores) {
  // Phantom load would crowd a later program's ranks onto the cores that
  // finished tenants' servers and clients still held.
  MixParams params;
  params.jobs = 8;
  params.bb_bound = true;
  const auto run = RunMix(SampleJobMix(5, params), Policy::kBbAware);
  ASSERT_EQ(run.sim->completed_jobs(), 8);
  workload::Scenario fresh(ShapeOptions(MachineShape{}));
  vmpi::Runtime& used_rt = run.scenario->runtime();
  vmpi::Runtime& fresh_rt = fresh.runtime();
  const std::vector<int> nodes{0, 1, 2, 3, 4, 5, 6, 7};
  for (const bool server : {true, false}) {
    const int procs = server ? 16 : 40;  // clients oversubscribe 8-core nodes
    const auto a = used_rt.LaunchProgramOn("probe", procs, nodes, server);
    const auto b = fresh_rt.LaunchProgramOn("probe", procs, nodes, server);
    for (int r = 0; r < procs; ++r) {
      const vmpi::RankInfo& ra = used_rt.Rank(a, r);
      const vmpi::RankInfo& rb = fresh_rt.Rank(b, r);
      ASSERT_EQ(ra.node, rb.node);
      EXPECT_EQ(used_rt.Scheduler(ra.node).CoreOf(ra.sched_proc),
                fresh_rt.Scheduler(rb.node).CoreOf(rb.sched_proc))
          << (server ? "server" : "client") << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace uvs::cluster
