// Tests for the shared deployment builder (workload::BuildSystem) and the
// fault arming every front end uses (workload::ArmFaults).
#include <gtest/gtest.h>

#include <string>

#include "src/fault/injector.hpp"
#include "src/fault/plan.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::workload {
namespace {

ScenarioOptions SmallMachine(int osts = 16, int procs = 8) {
  ScenarioOptions options;
  options.procs = procs;
  options.cluster_params = hw::CoriPreset(procs, /*procs_per_node=*/4);
  options.cluster_params.node.cores = 8;
  options.cluster_params.pfs.osts = osts;
  return options;
}

fault::Plan Plan(const std::string& spec) {
  auto plan = fault::ParsePlan(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

TEST(BuildSystem, EachKindBuildsItsSystemBehindItsDriver) {
  struct Case {
    SystemKind kind;
    const char* name;
    const char* fs_type;
    bool univistor;
    bool data_elevator;
  };
  for (const Case& c : {Case{SystemKind::kUniviStor, "univistor", "univistor", true, false},
                        Case{SystemKind::kLustre, "lustre", "lustre", false, false},
                        Case{SystemKind::kDataElevator, "data_elevator", "data-elevator", false,
                             true}}) {
    Scenario scenario(SmallMachine());
    const SystemUnderTest sut = BuildSystem(scenario, c.kind, univistor::Config{});
    EXPECT_STREQ(SystemKindName(c.kind), c.name);
    ASSERT_NE(sut.driver, nullptr) << c.name;
    EXPECT_STREQ(sut.driver->fs_type(), c.fs_type);
    EXPECT_EQ(sut.univistor != nullptr, c.univistor) << c.name;
    EXPECT_EQ(sut.data_elevator != nullptr, c.data_elevator) << c.name;
  }
}

TEST(BuildSystem, LustreStripesSharedFilesAcrossEveryOst) {
  for (int osts : {16, 300}) {
    Scenario scenario(SmallMachine(osts));
    const SystemUnderTest sut = BuildSystem(scenario, SystemKind::kLustre, {});
    const auto app = scenario.runtime().LaunchProgram("app", 8);
    RunHdfMicro(scenario, app, *sut.driver, {.bytes_per_proc = 1_MiB, .file_name = "s.h5"});
    const auto file = scenario.pfs().Lookup("s.h5");
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(scenario.pfs().Stripe(*file).stripe_count, osts);
  }
}

TEST(ArmFaults, OstFailureReachesThePfsWithOrWithoutUniviStor) {
  for (SystemKind kind : {SystemKind::kUniviStor, SystemKind::kLustre}) {
    Scenario scenario(SmallMachine());
    const SystemUnderTest sut = BuildSystem(scenario, kind, {});
    const auto injector = ArmFaults(scenario, Plan("ostfail@0.001:ost=3"), sut.univistor.get(),
                                    /*recover=*/false, kScrubStripeInterval);
    scenario.engine().Run();
    EXPECT_EQ(scenario.pfs().failed_ost_count(), 1) << SystemKindName(kind);
  }
}

TEST(ArmFaults, CrashesReachFailNodeOnlyWhenAUniviStorIsGiven) {
  for (bool wired : {true, false}) {
    Scenario scenario(SmallMachine());
    const SystemUnderTest sut = BuildSystem(scenario, SystemKind::kUniviStor, {});
    const auto injector =
        ArmFaults(scenario, Plan("crash@0.001:node=1"), wired ? sut.univistor.get() : nullptr,
                  /*recover=*/false, kScrubStripeInterval);
    scenario.engine().Run();
    EXPECT_EQ(injector->stats().crashes, 1u);
    EXPECT_EQ(sut.univistor->NodeFailed(1), wired);
  }
}

TEST(ArmFaults, RecoverRebuildsAFailedOstUnderAnErasureCodedFile) {
  for (bool recover : {true, false}) {
    Scenario scenario(SmallMachine());
    univistor::Config config;
    config.ec.enabled = true;
    config.chunk_size = 1_MiB;
    const SystemUnderTest sut = BuildSystem(scenario, SystemKind::kUniviStor, config);
    const auto app = scenario.runtime().LaunchProgram("app", 8);
    RunHdfMicro(scenario, app, *sut.driver, {.bytes_per_proc = 8_MiB, .file_name = "ec.h5"});
    // Fails an OST after the flush made the file erasure-coded on the PFS.
    const auto injector = ArmFaults(scenario, Plan("ostfail@0:ost=0"), sut.univistor.get(),
                                    recover, kScrubStripeInterval);
    scenario.engine().Run();
    EXPECT_EQ(scenario.pfs().failed_ost_count(), 1);
    if (recover) EXPECT_GT(scenario.pfs().ec_stats().rebuilt_bytes, 0u);
    else EXPECT_EQ(scenario.pfs().ec_stats().rebuilt_bytes, 0u);
  }
}

}  // namespace
}  // namespace uvs::workload
