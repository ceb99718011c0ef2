// Resilience battery for the fault:: subsystem: plan grammar, backoff
// policy, the injector against real cluster hardware, metadata-server
// retirement, the UniviStor recovery paths (flush retries, re-striping,
// safe mode), fault-run determinism, and fuzz-corpus integration
// (sampling + shrinking of fault plans).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/fault/injector.hpp"
#include "src/fault/plan.hpp"
#include "src/fault/retry.hpp"
#include "src/meta/service.hpp"
#include "src/obs/recorder.hpp"
#include "src/testkit/runner.hpp"
#include "src/testkit/scenario_spec.hpp"
#include "src/testkit/shrink.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

using workload::MicroParams;
using workload::RunHdfMicro;
using workload::Scenario;
using workload::ScenarioOptions;

// --- Plan grammar. ---

TEST(FaultPlan, ParsesEveryEventKind) {
  const auto plan = fault::ParsePlan(
      "crash@0.002:node=1;ost@0.001+0.05:ost=3,factor=0.1;"
      "bb@0.01+0.02:factor=0.25;bb@0.01+0.02:bb=1,factor=0.5;timeout@0.005+0.1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events.size(), 5u);
  EXPECT_EQ(plan->events[0].kind, fault::EventKind::kNodeCrash);
  EXPECT_EQ(plan->events[0].target, 1);
  EXPECT_EQ(plan->events[1].kind, fault::EventKind::kOstDegrade);
  EXPECT_DOUBLE_EQ(plan->events[1].factor, 0.1);
  EXPECT_EQ(plan->events[2].target, -1) << "bb without bb= stalls every node";
  EXPECT_EQ(plan->events[3].target, 1);
  EXPECT_EQ(plan->events[4].kind, fault::EventKind::kTransferTimeout);
}

TEST(FaultPlan, ToStringRoundTripsHandWrittenSpecs) {
  const std::string specs[] = {
      "crash@0.002:node=1",
      "ost@0.001+0.05:ost=3,factor=0.1",
      "bb@0.01+0.02:factor=0.25",
      "bb@0.01+0.02:bb=1,factor=0.5",
      "timeout@0.005+0.1",
      "crash@0.0005:node=0;timeout@0.001+0.02;ost@0.05+0.1:ost=7,factor=0.05",
      "ostfail@0.002:ost=3",
      "latent@0.001:ost=0",
      "scrub@0.05",
      "ostfail@0.001:ost=2;latent@0.002:ost=5;scrub@0.003;scrub@0.004",
  };
  for (const std::string& spec : specs) {
    const auto plan = fault::ParsePlan(spec);
    ASSERT_TRUE(plan.ok()) << spec;
    EXPECT_EQ(plan->ToString(), spec);
  }
}

TEST(FaultPlan, SampledPlansRoundTripAndStayInRange) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const fault::Plan plan = fault::SamplePlan(rng, /*nodes=*/4, /*osts=*/16, /*bb_nodes=*/3);
    ASSERT_FALSE(plan.empty());
    const auto back = fault::ParsePlan(plan.ToString());
    ASSERT_TRUE(back.ok()) << plan.ToString();
    EXPECT_EQ(*back, plan) << plan.ToString();
    for (const fault::FaultEvent& ev : plan.events) {
      switch (ev.kind) {
        case fault::EventKind::kNodeCrash:
          EXPECT_GE(ev.target, 0);
          EXPECT_LT(ev.target, 4);
          break;
        case fault::EventKind::kOstDegrade:
          EXPECT_GE(ev.target, 0);
          EXPECT_LT(ev.target, 16);
          break;
        case fault::EventKind::kBbStall:
          EXPECT_GE(ev.target, -1);
          EXPECT_LT(ev.target, 3);
          break;
        case fault::EventKind::kTransferTimeout:
          break;
        case fault::EventKind::kOstFail:
        case fault::EventKind::kLatentError:
          EXPECT_GE(ev.target, 0);
          EXPECT_LT(ev.target, 16);
          break;
        case fault::EventKind::kScrub:
          break;
      }
      if (ev.kind != fault::EventKind::kNodeCrash && ev.kind != fault::EventKind::kOstFail &&
          ev.kind != fault::EventKind::kLatentError && ev.kind != fault::EventKind::kScrub) {
        EXPECT_GT(ev.duration, 0.0);
      }
    }
  }
}

TEST(FaultPlan, EcSampledPlansRoundTripAndStayInRange) {
  bool saw_ec_kind = false;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const fault::Plan plan =
        fault::SamplePlan(rng, /*nodes=*/4, /*osts=*/16, /*bb_nodes=*/3, /*ec=*/true);
    ASSERT_FALSE(plan.empty());
    const auto back = fault::ParsePlan(plan.ToString());
    ASSERT_TRUE(back.ok()) << plan.ToString();
    EXPECT_EQ(*back, plan) << plan.ToString();
    for (const fault::FaultEvent& ev : plan.events) {
      if (ev.kind == fault::EventKind::kOstFail || ev.kind == fault::EventKind::kLatentError) {
        saw_ec_kind = true;
        EXPECT_GE(ev.target, 0);
        EXPECT_LT(ev.target, 16);
        EXPECT_EQ(ev.duration, 0.0) << plan.ToString();
      }
      if (ev.kind == fault::EventKind::kScrub) saw_ec_kind = true;
    }
  }
  EXPECT_TRUE(saw_ec_kind) << "200 EC-mode samples never drew an EC event kind";
}

TEST(FaultPlan, NonEcSamplingNeverDrawsEcKinds) {
  // Historical seeds must keep their plans: ec=false draws from the
  // original 4-kind menu only.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const fault::Plan plan = fault::SamplePlan(rng, 4, 16, 3);
    for (const fault::FaultEvent& ev : plan.events) {
      EXPECT_NE(ev.kind, fault::EventKind::kOstFail);
      EXPECT_NE(ev.kind, fault::EventKind::kLatentError);
      EXPECT_NE(ev.kind, fault::EventKind::kScrub);
    }
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "crash@0.002",                        // missing node=N
      "crash@0.002:node=-1",                // negative target
      "crash@-1:node=0",                    // negative time
      "ost@0.001:ost=3,factor=0.1",         // window without +duration
      "ost@0.001+0.05:ost=3,factor=0",      // factor must be > 0
      "ost@0.001+0.05:ost=3,factor=1.5",    // factor must be <= 1
      "ost@0.001+0.05:factor=0.1",          // missing ost=K
      "timeout@0.005+0.1:node=1",           // timeout takes no arguments
      "flood@0.005+0.1",                    // unknown kind
      "crash0.002:node=1",                  // missing '@'
      "crash@abc:node=1",                   // non-numeric time
      "ostfail@0.002",                      // missing ost=K
      "ostfail@0.002:ost=-1",               // negative target
      "latent@0.002",                       // missing ost=K
      "latent@0.002:node=1",                // wrong argument key
      "scrub@0.002:ost=1",                  // scrub takes no arguments
      "crash@0.002:node=1.5",               // fractional target
      "crash@0.002:node=1e30",              // target beyond int
      "crash@0.002:node=4294967297",        // target beyond int
      "crash@nan:node=1",                   // non-finite time
      "ost@0.001+inf:ost=3,factor=0.1",     // non-finite duration
      "crash@0.002:node=1,node=0",          // duplicate key
      "ost@0.001+0.05:ost=3,factor=nan",    // non-finite factor
      "bb@0.001+0.05:bb=-1,factor=0.5",     // omit bb= to stall every node
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(fault::ParsePlan(spec).ok()) << "should reject: " << spec;
  }
}

TEST(FaultPlan, EmptySpecIsAnEmptyPlan) {
  const auto plan = fault::ParsePlan("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

// --- Backoff policy. ---

TEST(Backoff, DeterministicForTheSameSeed) {
  const fault::BackoffPolicy policy;
  Rng a(99), b(99);
  for (int attempt = 0; attempt < 8; ++attempt)
    EXPECT_EQ(fault::BackoffDelay(policy, attempt, a), fault::BackoffDelay(policy, attempt, b));
}

TEST(Backoff, GrowsExponentiallyAndCaps) {
  fault::BackoffPolicy policy;
  policy.jitter = 0.0;  // exact comparisons
  Rng rng(1);
  EXPECT_DOUBLE_EQ(fault::BackoffDelay(policy, 0, rng), 1_ms);
  EXPECT_DOUBLE_EQ(fault::BackoffDelay(policy, 1, rng), 2_ms);
  EXPECT_DOUBLE_EQ(fault::BackoffDelay(policy, 4, rng), 16_ms);
  EXPECT_DOUBLE_EQ(fault::BackoffDelay(policy, 20, rng), 0.5_sec) << "capped at max";
}

TEST(Backoff, JitterStaysWithinTheConfiguredBand) {
  fault::BackoffPolicy policy;
  policy.jitter = 0.2;
  Rng rng(7);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const Time base = std::min(policy.max, policy.initial * std::pow(policy.factor, attempt));
    const Time delay = fault::BackoffDelay(policy, attempt, rng);
    EXPECT_GE(delay, base * 0.9);
    EXPECT_LE(delay, base * 1.1);
  }
}

// --- Injector against real cluster hardware. ---

ScenarioOptions InjectorOptions() {
  ScenarioOptions options;
  options.procs = 8;
  options.cluster_params = hw::CoriPreset(8, /*procs_per_node=*/4);
  return options;
}

TEST(Injector, OstWindowDegradesAndRestores) {
  Scenario scenario(InjectorOptions());
  const auto plan = fault::ParsePlan("ost@0.01+0.02:ost=1,factor=0.5");
  ASSERT_TRUE(plan.ok());
  fault::Injector injector(scenario.engine(), *plan);
  injector.set_cluster(&scenario.cluster());
  injector.Arm();
  scenario.engine().Run();
  EXPECT_EQ(injector.stats().ost_windows, 1u);
  EXPECT_FALSE(scenario.cluster().pfs().degraded(1)) << "window closed";
  EXPECT_NEAR(scenario.cluster().pfs().degraded_seconds(), 0.02, 1e-9);
}

TEST(Injector, BbStallWithoutTargetHitsEveryNode) {
  Scenario scenario(InjectorOptions());
  const int bb_nodes = scenario.cluster().params().bb.bb_nodes;
  const auto plan = fault::ParsePlan("bb@0.001+0.01:factor=0.25");
  ASSERT_TRUE(plan.ok());
  fault::Injector injector(scenario.engine(), *plan);
  injector.set_cluster(&scenario.cluster());
  injector.Arm();
  scenario.engine().Run();
  EXPECT_EQ(injector.stats().bb_windows, 1u);
  EXPECT_NEAR(scenario.cluster().burst_buffer().degraded_seconds(), 0.01 * bb_nodes, 1e-9);
}

TEST(Injector, TimeoutWindowTogglesTransferFaultActive) {
  Scenario scenario(InjectorOptions());
  const auto plan = fault::ParsePlan("timeout@0.01+0.02");
  ASSERT_TRUE(plan.ok());
  fault::Injector injector(scenario.engine(), *plan);
  injector.Arm();
  bool before = true, during = false, after = true;
  scenario.engine().Schedule(0.005, [&] { before = injector.TransferFaultActive(); });
  scenario.engine().Schedule(0.02, [&] { during = injector.TransferFaultActive(); });
  scenario.engine().Schedule(0.04, [&] { after = injector.TransferFaultActive(); });
  scenario.engine().Run();
  EXPECT_FALSE(before);
  EXPECT_TRUE(during);
  EXPECT_FALSE(after);
  EXPECT_EQ(injector.stats().timeout_windows, 1u);
}

TEST(Injector, CrashHandlerFiresAndOutOfRangeTargetsAreSkipped) {
  Scenario scenario(InjectorOptions());
  const auto plan = fault::ParsePlan("crash@0.001:node=0;crash@0.002:node=99;ost@0.001+0.01:ost=4096,factor=0.5");
  ASSERT_TRUE(plan.ok());
  fault::Injector injector(scenario.engine(), *plan);
  injector.set_cluster(&scenario.cluster());
  std::vector<int> crashed;
  injector.SetCrashHandler([&](int node) { crashed.push_back(node); });
  injector.Arm();
  scenario.engine().Run();
  ASSERT_EQ(crashed.size(), 1u) << "node 99 does not exist on a 2-node cluster";
  EXPECT_EQ(crashed[0], 0);
  EXPECT_EQ(injector.stats().ost_windows, 0u) << "ost 4096 does not exist";
}

// --- Metadata repartitioning on server death. ---

TEST(MetaRetire, RecordsSurviveServerRetirement) {
  meta::DistributedMetadataService service(/*servers=*/4, /*range_size=*/1_MiB);
  for (int i = 0; i < 32; ++i) {
    service.Insert(meta::MetadataRecord{
        /*fid=*/1, /*offset=*/static_cast<Bytes>(i) * 1_MiB, /*len=*/1_MiB,
        /*producer=*/0, /*va=*/static_cast<Bytes>(i) * 1_MiB});
  }
  const auto before = service.Query(1, 0, 32_MiB);
  const std::size_t total = service.TotalRecords();

  const std::size_t moved = service.RetireServer(2);
  EXPECT_GT(moved, 0u);
  EXPECT_FALSE(service.ServerAlive(2));
  EXPECT_EQ(service.RecordCount(2), 0u);
  EXPECT_EQ(service.TotalRecords(), total) << "re-homing must not lose records";

  const auto after = service.Query(1, 0, 32_MiB);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].offset, before[i].offset);
    EXPECT_EQ(after[i].len, before[i].len);
    EXPECT_EQ(after[i].va, before[i].va);
  }
  EXPECT_EQ(service.RetireServer(2), 0u) << "second retire is a no-op";
}

TEST(MetaRetire, OwnershipFollowsTheLivePartitioner) {
  meta::DistributedMetadataService service(/*servers=*/4, /*range_size=*/1_MiB);
  service.Insert(meta::MetadataRecord{1, 2_MiB, 1_MiB, 0, 0});  // range 2 -> server 2
  ASSERT_EQ(service.ServerOf(2_MiB), 2);
  service.RetireServer(2);
  const int heir = service.ServerOf(2_MiB);
  EXPECT_EQ(heir, 3) << "successor scan re-homes to the next live server";
  EXPECT_EQ(service.QueryPartition(heir, 1, 2_MiB, 1_MiB).size(), 1u);
}

TEST(MetaRetire, LastLiveServerCannotRetire) {
  meta::DistributedMetadataService service(/*servers=*/2, /*range_size=*/1_MiB);
  service.Insert(meta::MetadataRecord{1, 0, 4_MiB, 0, 0});
  EXPECT_GE(service.RetireServer(0), 0u);
  EXPECT_EQ(service.RetireServer(1), 0u) << "refused: it is the last live server";
  EXPECT_TRUE(service.ServerAlive(1));
  EXPECT_EQ(service.Query(1, 0, 4_MiB).size(), 4u);
}

// --- UniviStor recovery paths. ---

ScenarioOptions RecoveryOptions(int procs = 8) {
  ScenarioOptions options;
  options.procs = procs;
  options.cluster_params = hw::CoriPreset(procs, /*procs_per_node=*/4);
  options.cluster_params.node.cores = 8;
  options.cluster_params.node.dram_cache_capacity = 2_GiB;
  return options;
}

univistor::Config RecoveryConfig() {
  univistor::Config config;
  config.chunk_size = 8_MiB;
  config.metadata_range_size = 4_MiB;
  config.flush_on_close = false;
  config.recovery.enabled = true;
  return config;
}

struct Fixture {
  explicit Fixture(univistor::Config config, ScenarioOptions options = RecoveryOptions())
      : scenario(options),
        system(scenario.runtime(), scenario.pfs(), scenario.workflow(), config),
        driver(system),
        app(scenario.runtime().LaunchProgram("app", options.procs)) {}

  Scenario scenario;
  univistor::UniviStor system;
  univistor::UniviStorDriver driver;
  vmpi::ProgramId app;
};

TEST(Recovery, FlushRetriesThroughATimeoutWindow) {
  univistor::Config config = RecoveryConfig();
  config.flush_on_close = true;
  Fixture f(config);
  const auto plan = fault::ParsePlan("timeout@0+10");  // covers the whole run
  ASSERT_TRUE(plan.ok());
  fault::Injector injector(f.scenario.engine(), *plan);
  injector.set_cluster(&f.scenario.cluster());
  f.system.AttachFaults(&injector);
  injector.Arm();
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "t.h5"});
  EXPECT_GT(f.system.flush_retries(), 0);
  EXPECT_GT(f.system.backoff_seconds(), 0.0);
  EXPECT_EQ(f.system.flush_stats().flushes, 1)
      << "retries are capped: the flush proceeds despite the open window";
}

TEST(Recovery, NoFaultsMeansNoRetries) {
  univistor::Config config = RecoveryConfig();
  config.flush_on_close = true;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "t.h5"});
  EXPECT_EQ(f.system.flush_retries(), 0);
  EXPECT_EQ(f.system.backoff_seconds(), 0.0);
}

TEST(Recovery, CrashRestripesReplicatedExtentsToThePfs) {
  univistor::Config config = RecoveryConfig();
  config.replicate_volatile = true;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "r.h5"});
  f.system.FailNode(0);
  f.scenario.engine().Run();  // drain the spawned recovery task
  EXPECT_GT(f.system.restriped_bytes(), 0u);
  EXPECT_EQ(f.system.restriped_bytes(), 16_MiB * 4)
      << "every replicated volatile byte of the dead node re-stripes";
  EXPECT_GT(f.system.repartitioned_records(), 0u);
  const auto fid = f.system.OpenOrCreate("r.h5");
  EXPECT_TRUE(f.system.HasPfsCopy(fid));

  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "r.h5"});
  EXPECT_EQ(f.system.lost_reads(), 0) << "acknowledged-durable bytes stay readable";
  EXPECT_EQ(f.system.lost_bytes(), 0u);
}

TEST(Recovery, DisabledRecoveryKeepsLegacyLossSemantics) {
  univistor::Config config = RecoveryConfig();
  config.recovery.enabled = false;
  config.replicate_volatile = true;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "r.h5"});
  f.system.FailNode(0);
  f.scenario.engine().Run();
  EXPECT_EQ(f.system.restriped_bytes(), 0u);
  EXPECT_EQ(f.system.repartitioned_records(), 0u);
}

TEST(Recovery, SafeModeBlocksWritesUnderReplicationLag) {
  univistor::Config config = RecoveryConfig();
  config.replicate_volatile = true;
  config.recovery.safe_mode_dirty_limit = 1_MiB;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "s.h5"});
  EXPECT_GT(f.system.safe_mode_bytes(), 0u)
      << "dirty bytes beyond the limit must take the write-through path";
  f.scenario.engine().Run();
  EXPECT_EQ(f.system.replication_backlog(), 0u) << "drained run has no backlog";
}

TEST(Recovery, MetadataStaysCompleteAfterNodeDeath) {
  univistor::Config config = RecoveryConfig();
  config.replicate_volatile = true;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "m.h5"});
  const auto fid = f.system.OpenOrCreate("m.h5");
  const Bytes size = f.system.LogicalSize(fid);
  const auto before = f.system.metadata().Query(fid, 0, size);
  Bytes covered_before = 0;
  for (const auto& rec : before) covered_before += rec.len;
  f.system.FailNode(0);
  f.scenario.engine().Run();
  const auto after = f.system.metadata().Query(fid, 0, size);
  ASSERT_EQ(after.size(), before.size()) << "repartitioning must not lose records";
  Bytes covered_after = 0;
  for (const auto& rec : after) covered_after += rec.len;
  EXPECT_EQ(covered_after, covered_before);
  EXPECT_GE(covered_after, 16_MiB * 8) << "every written byte stays mapped";
}

// --- Determinism: identical seeds and plans, identical runs. ---

std::string ChromeTraceOf(const std::string& fault_spec, std::uint64_t seed) {
  obs::Recorder recorder;
  recorder.Install();
  {
    ScenarioOptions options = RecoveryOptions();
    options.cluster_params.seed = seed;
    Scenario scenario(options);
    univistor::Config config = RecoveryConfig();
    config.replicate_volatile = true;
    univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                                config);
    univistor::UniviStorDriver driver(system);
    const auto app = scenario.runtime().LaunchProgram("app", 8);
    const auto plan = fault::ParsePlan(fault_spec);
    EXPECT_TRUE(plan.ok());
    fault::Injector injector(scenario.engine(), *plan);
    injector.set_cluster(&scenario.cluster());
    injector.SetCrashHandler([&system](int node) { system.FailNode(node); });
    system.AttachFaults(&injector);
    injector.Arm();
    RunHdfMicro(scenario, app, driver,
                MicroParams{.bytes_per_proc = 16_MiB, .file_name = "d.h5"});
    RunHdfMicro(scenario, app, driver,
                MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "d.h5"});
  }
  recorder.Uninstall();
  const std::string path =
      ::testing::TempDir() + "fault_trace_" + std::to_string(seed) + ".json";
  EXPECT_TRUE(recorder.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultDeterminism, IdenticalPlansProduceIdenticalTraces) {
  const std::string spec = "crash@0.004:node=1;ost@0.001+0.05:ost=2,factor=0.1;timeout@0+0.02";
  const std::string a = ChromeTraceOf(spec, 42);
  const std::string b = ChromeTraceOf(spec, 42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same seed + same fault plan must replay bit-for-bit";
}

TEST(FaultDeterminism, ScenarioOutcomesReplayExactly) {
  testkit::ScenarioSpec spec;
  spec.seed = 1234;
  spec.procs = 8;
  spec.procs_per_node = 4;
  spec.workload = workload::WorkloadKind::kMicroReadBack;
  spec.replicate_volatile = true;
  spec.recovery = true;
  spec.failure = testkit::FailureMode::kPlan;
  spec.fault_plan = "crash@0.002:node=0;timeout@0.001+0.02";
  const auto a = testkit::RunScenario(spec);
  const auto b = testkit::RunScenario(spec);
  EXPECT_TRUE(a.ok()) << a.report.ToString();
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.lost_bytes, b.lost_bytes);
  EXPECT_EQ(a.expected_lost_bytes, b.expected_lost_bytes);
  EXPECT_EQ(a.file_sizes, b.file_sizes);
}

// --- Fuzz-corpus integration. ---

TEST(FaultFuzz, SamplerDrawsFaultPlansAndRecovery) {
  int plans = 0, recovery = 0;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    const auto spec = testkit::SampleScenario(seed);
    if (spec.failure == testkit::FailureMode::kPlan) {
      ++plans;
      const auto plan = fault::ParsePlan(spec.fault_plan);
      ASSERT_TRUE(plan.ok()) << spec.ToString();
      EXPECT_FALSE(plan->empty());
    } else {
      EXPECT_TRUE(spec.fault_plan.empty());
    }
    if (spec.recovery) ++recovery;
    // Every sampled spec must survive the ToString/Parse round trip.
    const auto back = testkit::ParseScenarioSpec(spec.ToString());
    ASSERT_TRUE(back.ok()) << spec.ToString();
    EXPECT_EQ(*back, spec);
  }
  EXPECT_GE(plans, 10) << "the CI fuzz corpus must exercise fault plans";
  EXPECT_GE(recovery, 10) << "the CI fuzz corpus must exercise recovery";
}

TEST(FaultFuzz, SpecParserEnforcesPlanConsistency) {
  EXPECT_FALSE(testkit::ParseScenarioSpec("fail=plan").ok()) << "plan mode needs fplan=";
  EXPECT_FALSE(testkit::ParseScenarioSpec("fplan=crash@0.001:node=0").ok())
      << "fplan= needs fail=plan";
  EXPECT_FALSE(testkit::ParseScenarioSpec("fail=plan fplan=flood@1+1").ok())
      << "the plan itself must parse";
  const auto ok = testkit::ParseScenarioSpec("fail=plan fplan=crash@0.001:node=0 recov=1");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->failure, testkit::FailureMode::kPlan);
  EXPECT_TRUE(ok->recovery);
}

TEST(FaultFuzz, ShrinkerMinimizesFaultPlans) {
  testkit::ScenarioSpec failing;
  failing.seed = 77;
  failing.procs = 16;
  failing.procs_per_node = 4;
  failing.steps = 3;
  failing.workload = workload::WorkloadKind::kVpic;
  failing.recovery = true;
  failing.failure = testkit::FailureMode::kPlan;
  failing.fault_plan = "crash@0.002:node=1;ost@0.001+0.05:ost=3,factor=0.1;timeout@0.005+0.1";

  // The "bug" reproduces whenever any fault plan is present, so the
  // shrinker should strip the plan down to a single event (dropping the
  // last one empties the plan, which flips failure to kNone and stops
  // reproducing) and minimize everything else.
  const auto result = testkit::Shrink(
      failing,
      [](const testkit::ScenarioSpec& s) { return s.failure == testkit::FailureMode::kPlan; },
      /*max_attempts=*/256);
  EXPECT_EQ(result.spec.failure, testkit::FailureMode::kPlan);
  const auto plan = fault::ParsePlan(result.spec.fault_plan);
  ASSERT_TRUE(plan.ok()) << result.spec.fault_plan;
  EXPECT_EQ(plan->events.size(), 1u) << result.spec.fault_plan;
  EXPECT_EQ(result.spec.procs, 1);
  EXPECT_EQ(result.spec.steps, 1);
  EXPECT_FALSE(result.spec.recovery);
  EXPECT_EQ(result.spec.workload, workload::WorkloadKind::kMicro);
}

TEST(FaultFuzz, PlanScenariosRunCleanUnderTheInvariantChecks) {
  // A focused sweep over kPlan specs (the nightly corpus runs many more).
  int ran = 0;
  for (std::uint64_t seed = 1; seed <= 96 && ran < 8; ++seed) {
    const auto spec = testkit::SampleScenario(seed);
    if (spec.failure != testkit::FailureMode::kPlan) continue;
    ++ran;
    const auto outcome = testkit::RunScenario(spec);
    EXPECT_TRUE(outcome.ok()) << spec.ToString() << "\n" << outcome.report.ToString();
    EXPECT_LE(outcome.lost_bytes, outcome.expected_lost_bytes)
        << "bytes lost must stay within the un-replicated dirty window";
  }
  EXPECT_GE(ran, 4);
}

}  // namespace
}  // namespace uvs
