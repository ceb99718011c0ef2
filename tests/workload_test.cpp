// Integration tests of the workload runners (VPIC-IO, BD-CATS-IO, the
// coupled workflow and the driver every front end shares) across the
// three storage systems.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/baselines/data_elevator.hpp"
#include "src/baselines/lustre_driver.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/bdcats.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

namespace uvs::workload {
namespace {

ScenarioOptions SmallOptions(int procs = 8, bool workflow = false) {
  ScenarioOptions options;
  options.procs = procs;
  options.workflow_enabled = workflow;
  options.cluster_params = hw::CoriPreset(procs, /*procs_per_node=*/4);
  options.cluster_params.node.cores = 8;
  options.cluster_params.node.dram_cache_capacity = 2_GiB;
  return options;
}

univistor::Config SmallConfig() {
  univistor::Config config;
  config.chunk_size = 8_MiB;
  config.metadata_range_size = 4_MiB;
  return config;
}

VpicParams SmallVpic(int steps = 2) {
  return VpicParams{.steps = steps,
                    .vars = 4,
                    .bytes_per_var = 4_MiB,
                    .compute_time = 5.0,
                    .file_prefix = "vpic"};
}

TEST(Vpic, RunsToCompletionOnUniviStor) {
  Scenario scenario(SmallOptions());
  univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                              SmallConfig());
  univistor::UniviStorDriver driver(system);
  auto app = scenario.runtime().LaunchProgram("vpic", 8);
  auto result = RunVpic(scenario, app, driver, SmallVpic());
  EXPECT_GT(result.write_time, 0.0);
  EXPECT_EQ(result.bytes, 2u * 4 * 4_MiB * 8);
  EXPECT_GE(result.elapsed, 5.0) << "includes the compute sleep";
  EXPECT_GE(result.total_io_time, result.write_time);
  EXPECT_EQ(system.flush_stats().flushes, 2);
}

TEST(Vpic, ComputeSleepOverlapsFlush) {
  // With a long sleep the flush of step t drains during the sleep, so the
  // final flush wait only covers the last step.
  Scenario scenario(SmallOptions());
  univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                              SmallConfig());
  univistor::UniviStorDriver driver(system);
  auto app = scenario.runtime().LaunchProgram("vpic", 8);
  auto params = SmallVpic(3);
  params.compute_time = 120.0;
  auto result = RunVpic(scenario, app, driver, params);
  EXPECT_LT(result.final_flush_wait, result.elapsed * 0.5);
}

TEST(Vpic, RunsOnDataElevatorAndLustre) {
  {
    Scenario scenario(SmallOptions());
    baselines::DataElevator de(scenario.runtime(), scenario.pfs());
    baselines::DataElevatorDriver driver(de);
    auto app = scenario.runtime().LaunchProgram("vpic", 8);
    auto result = RunVpic(scenario, app, driver, SmallVpic());
    EXPECT_GT(result.write_time, 0.0);
    EXPECT_EQ(de.flush_stats().flushes, 2);
  }
  {
    Scenario scenario(SmallOptions());
    baselines::LustreDriver driver(scenario.runtime(), scenario.pfs());
    auto app = scenario.runtime().LaunchProgram("vpic", 8);
    auto result = RunVpic(scenario, app, driver, SmallVpic());
    EXPECT_GT(result.write_time, 0.0);
    EXPECT_DOUBLE_EQ(result.final_flush_wait, 0.0) << "Lustre writes are synchronous";
  }
}

TEST(Vpic, DramFasterThanLustreDirect) {
  auto params = SmallVpic();
  Scenario s1(SmallOptions());
  univistor::UniviStor system(s1.runtime(), s1.pfs(), s1.workflow(), SmallConfig());
  univistor::UniviStorDriver uvs_driver(system);
  auto app1 = s1.runtime().LaunchProgram("vpic", 8);
  auto uvs = RunVpic(s1, app1, uvs_driver, params);

  auto options = SmallOptions();
  options.policy = sched::PlacementPolicy::kCfs;
  Scenario s2(options);
  baselines::LustreDriver lustre(s2.runtime(), s2.pfs());
  auto app2 = s2.runtime().LaunchProgram("vpic", 8);
  auto direct = RunVpic(s2, app2, lustre, params);

  EXPECT_LT(uvs.write_time, direct.write_time);
}

TEST(Bdcats, ReadsBackVpicOutput) {
  Scenario scenario(SmallOptions());
  univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                              SmallConfig());
  univistor::UniviStorDriver driver(system);
  auto writer = scenario.runtime().LaunchProgram("vpic", 8);
  auto params = SmallVpic();
  RunVpic(scenario, writer, driver, params);

  auto reader = scenario.runtime().LaunchProgram("bdcats", 8);
  auto result = RunBdcats(scenario, reader, driver,
                          BdcatsParams{.producer = params, .producer_ranks = 8});
  EXPECT_GT(result.read_time, 0.0);
  EXPECT_EQ(result.bytes, 2u * 4 * 4_MiB * 8);
}

TEST(WorkflowCoupling, OverlapBeatsNonoverlap) {
  auto run = [](bool overlap) {
    Scenario scenario(SmallOptions(8, /*workflow=*/true));
    const SystemUnderTest sut = BuildSystem(scenario, SystemKind::kUniviStor, SmallConfig());
    auto writer = scenario.runtime().LaunchProgram("vpic", 4);
    auto reader = scenario.runtime().LaunchProgram("bdcats", 4);
    auto params = SmallVpic(3);
    params.compute_time = 10.0;
    const WorkflowResult result =
        RunWorkflow(scenario, *sut.driver, writer, reader, params, overlap);
    EXPECT_EQ(result.consumer.bytes, result.producer.bytes);
    EXPECT_GE(result.elapsed, result.producer.elapsed);
    return result.elapsed;
  };
  const Time overlap = run(true);
  const Time nonoverlap = run(false);
  EXPECT_LT(overlap, nonoverlap);
}

TEST(WorkflowCoupling, DriverChainsBaselinesAndOverlapsUniviStor) {
  for (SystemKind kind : {SystemKind::kUniviStor, SystemKind::kLustre, SystemKind::kDataElevator}) {
    Scenario scenario(SmallOptions(8, /*workflow=*/true));
    const SystemUnderTest sut = BuildSystem(scenario, kind, SmallConfig());
    const WorkloadResult result = DriveWorkload(
        scenario, sut,
        WorkloadParams{.kind = WorkloadKind::kWorkflow, .procs = 8, .bytes_per_rank = 16_MiB,
                       .steps = 2, .vpic_vars = 4});
    const WorkflowResult& run = result.workflow;
    EXPECT_EQ(run.consumer.bytes, run.producer.bytes) << SystemKindName(kind);
    EXPECT_EQ(result.files, (std::vector<std::string>{"vpic_t0.h5", "vpic_t1.h5"}));
    // BD-CATS started `elapsed - consumer.elapsed` after VPIC did.
    const Time consumer_start = run.elapsed - run.consumer.elapsed;
    if (kind == SystemKind::kUniviStor) {
      EXPECT_DOUBLE_EQ(consumer_start, 0.0) << "both programs start together";
      EXPECT_LT(run.elapsed, run.producer.elapsed + run.consumer.elapsed)
          << "the reader runs while the writer still writes";
    } else {
      EXPECT_GE(consumer_start,
                run.producer.elapsed + run.producer.final_flush_wait - 1e-9)
          << SystemKindName(kind) << ": BD-CATS starts only after VPIC is done";
    }
  }
}

TEST(WorkflowCoupling, ReaderNeverReadsFileBeingWritten) {
  // With workflow enabled, the reader's open of step t waits for the
  // writer's close of step t; sanity-check it completes (no deadlock) and
  // reads back every byte.
  Scenario scenario(SmallOptions(8, /*workflow=*/true));
  const SystemUnderTest sut = BuildSystem(scenario, SystemKind::kUniviStor, SmallConfig());
  auto writer = scenario.runtime().LaunchProgram("vpic", 4);
  auto reader = scenario.runtime().LaunchProgram("bdcats", 4);
  const WorkflowResult result =
      RunWorkflow(scenario, *sut.driver, writer, reader, SmallVpic(2), /*overlap=*/true);
  EXPECT_GT(result.consumer.read_time, 0.0);
  EXPECT_EQ(result.consumer.bytes, result.producer.bytes);
  EXPECT_EQ(scenario.engine().live_processes(), 0u);
}

TEST(HdfMicro, TimingFieldsAreConsistent) {
  Scenario scenario(SmallOptions());
  univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                              SmallConfig());
  univistor::UniviStorDriver driver(system);
  auto app = scenario.runtime().LaunchProgram("app", 8);
  auto t = RunHdfMicro(scenario, app, driver,
                       MicroParams{.bytes_per_proc = 8_MiB, .file_name = "t.h5"});
  EXPECT_GT(t.rate(), 0.0);
  EXPECT_LE(t.open + t.io + t.close, t.elapsed * 1.5 + 1e-9);
  EXPECT_EQ(t.bytes, 8_MiB * 8);
}

}  // namespace
}  // namespace uvs::workload
