// 64-seed cluster smoke battery (CI runs this under ASan/UBSan): sampled
// multi-tenant mixes across all scheduling policies must complete within
// the starvation horizon and pass the cluster invariant battery; plus the
// testkit cluster path (ScenarioSpec with jobs > 1) end to end, including
// a seed-timed node-crash plan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/arrival.hpp"
#include "src/cluster/job.hpp"
#include "src/cluster/scheduler.hpp"
#include "src/cluster/simulation.hpp"
#include "src/hw/params.hpp"
#include "src/testkit/invariants.hpp"
#include "src/testkit/runner.hpp"
#include "src/testkit/scenario_spec.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::cluster {
namespace {

/// Small machine: 4 nodes, tiny caches, a burst buffer that genuinely
/// binds against the sampled mixes.
workload::ScenarioOptions SmokeOptions(std::uint64_t seed) {
  hw::ClusterParams params = hw::CoriPreset(16, 4);
  params.node.cores = 8;
  params.node.dram_cache_capacity = 32_MiB;
  params.bb.bb_nodes = 2;
  params.bb.capacity_per_bb_node = 64_MiB;
  params.pfs.osts = 4;
  params.seed = seed;
  workload::ScenarioOptions options;
  options.procs = 16;
  options.cluster_params = params;
  return options;
}

TEST(ClusterSmoke, SixtyFourSeeds) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    MixParams mix;
    mix.jobs = 3 + static_cast<int>(seed % 3);
    mix.mean_interarrival = (seed % 2) ? 0.005 : 0.0;
    mix.bb_bound = seed % 2 == 0;
    mix.lustre_fraction = (seed % 4 == 0) ? 0.25 : 0.0;
    const Policy policy = static_cast<Policy>(seed % 3);

    workload::Scenario scenario(SmokeOptions(seed));
    ClusterOptions options;
    options.policy = policy;
    options.base_config.chunk_size = 1_MiB;
    ClusterSim sim(scenario, SampleJobMix(seed, mix), options);
    sim.Run();

    const std::string label =
        "seed " + std::to_string(seed) + " policy " + PolicyName(policy);
    ASSERT_EQ(sim.completed_jobs(), sim.job_count()) << label;
    EXPECT_LE(scenario.engine().Now(), sim.StarvationHorizon()) << label;
    testkit::InvariantReport report;
    testkit::CheckClusterRun(scenario, sim, /*faults_armed=*/false, report);
    ASSERT_TRUE(report.ok()) << label << ": " << report.ToString();
  }
}

// ---------------------------------------------------------------------------
// Testkit cluster path: ScenarioSpec with jobs > 1 routes through
// RunClusterScenario and its invariant battery.

testkit::ScenarioSpec ClusterSpec(int csched) {
  testkit::ScenarioSpec spec;
  spec.seed = 400 + static_cast<std::uint64_t>(csched);
  spec.procs = 16;
  spec.procs_per_node = 4;
  spec.osts = 4;
  spec.workload = workload::WorkloadKind::kMicro;
  spec.bytes_per_rank = 2_MiB;
  spec.jobs = 3;
  spec.arrival = 0.005;
  spec.csched = csched;
  return spec;
}

TEST(ClusterSmoke, TestkitPathAcrossPolicies) {
  for (int csched = 0; csched < 3; ++csched) {
    const auto outcome = testkit::RunScenario(ClusterSpec(csched), {});
    EXPECT_TRUE(outcome.report.ok())
        << "csched " << csched << ": " << outcome.report.ToString();
    EXPECT_EQ(outcome.lost_bytes, 0u) << "csched " << csched;
  }
}

TEST(ClusterSmoke, TestkitPathWithCrashPlan) {
  testkit::ScenarioSpec spec = ClusterSpec(2);
  spec.seed = 77;
  spec.failure = testkit::FailureMode::kPlan;
  spec.fault_plan = "crash@0.02:node=0";
  const auto outcome = testkit::RunScenario(spec, {});
  // Lost bytes (if any) must stay within the metadata-derived bound; the
  // runner reports a lost-bound violation otherwise.
  EXPECT_TRUE(outcome.report.ok()) << outcome.report.ToString();
}

TEST(ClusterSmoke, FlushAfterACrashLeavesTheDeadNodesBytesLost) {
  // Node 1 dies at 2 ms, before job 0's first flush begins. The flush still
  // moves its bytes' share of the volume, but it must not count the dead
  // node's DRAM bytes as durable on the PFS: job 0's reads found them lost,
  // and the metadata-derived bound has to agree (uvfuzz shrank the failing
  // 4-job spec to this one).
  const auto spec = testkit::ParseScenarioSpec(
      "seed=0 procs=8 ppn=4 ssd=0 ssd_mb=32 dram_mb=32 bb_nodes=2 bb_mb=64 osts=4 "
      "system=univistor ia=1 coc=1 adpt=1 la=1 rep=0 promo=0 foc=1 layer=0 chunk_mb=4 "
      "md_mb=2 workload=micro_read mb=1 steps=1 compute=0 fail=plan fail_node=0 recov=0 "
      "jobs=2 arrival=0 csched=2 fplan=crash@0.002:node=1");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto outcome = testkit::RunScenario(*spec, {});
  EXPECT_TRUE(outcome.report.ok()) << outcome.report.ToString();
  EXPECT_GT(outcome.lost_bytes, 0u) << "node 1's unflushed DRAM bytes are gone";
}

TEST(ClusterSmoke, SpecRoundTripsClusterKeys) {
  testkit::ScenarioSpec spec = ClusterSpec(1);
  const auto parsed = testkit::ParseScenarioSpec(spec.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, spec);
  // Pre-cluster spec strings (no jobs/arrival/csched keys) still parse,
  // defaulting to the classic single-job run.
  const auto legacy = testkit::ParseScenarioSpec("seed=5 procs=8 ppn=4");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->jobs, 1);
}

}  // namespace
}  // namespace uvs::cluster
