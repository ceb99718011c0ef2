// Unit tests for the testkit fuzzing subsystem: scenario sampling and
// serialization, the narrow invariant checkers on synthetic inputs, the
// shrinker's fixpoint behavior, and a few full RunScenario smoke runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/combinators.hpp"
#include "src/testkit/invariants.hpp"
#include "src/testkit/runner.hpp"
#include "src/testkit/scenario_spec.hpp"
#include "src/testkit/shrink.hpp"

namespace uvs::testkit {
namespace {

using workload::SystemKind;

// --- Scenario sampling. ---

TEST(ScenarioSpecTest, SamplingIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    EXPECT_EQ(SampleScenario(seed), SampleScenario(seed)) << "seed " << seed;
  }
  EXPECT_NE(SampleScenario(1), SampleScenario(2));
}

TEST(ScenarioSpecTest, SampledSpecsAreValid) {
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    const ScenarioSpec spec = SampleScenario(seed);
    EXPECT_GE(spec.procs, 2);
    EXPECT_GE(spec.procs_per_node, 1);
    EXPECT_GE(spec.steps, 1);
    EXPECT_GE(spec.bytes_per_rank, 1_MiB);
    if (spec.failure != FailureMode::kNone) {
      EXPECT_EQ(spec.system, SystemKind::kUniviStor);
      EXPECT_GE(spec.failed_node, 0);
      EXPECT_LT(spec.failed_node, spec.Nodes());
    }
  }
}

TEST(ScenarioSpecTest, SamplerCoversTheSpace) {
  bool saw[4] = {};
  bool saw_system[3] = {};
  bool saw_failure = false;
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    const ScenarioSpec spec = SampleScenario(seed);
    saw[static_cast<int>(spec.workload)] = true;
    saw_system[static_cast<int>(spec.system)] = true;
    saw_failure |= spec.failure != FailureMode::kNone;
  }
  for (bool s : saw) EXPECT_TRUE(s) << "a workload kind never sampled in 256 seeds";
  for (bool s : saw_system) EXPECT_TRUE(s) << "a system kind never sampled in 256 seeds";
  EXPECT_TRUE(saw_failure);
}

TEST(ScenarioSpecTest, ToStringParseRoundTrips) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const ScenarioSpec spec = SampleScenario(seed);
    const auto parsed = ParseScenarioSpec(spec.ToString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, spec) << spec.ToString();
  }
}

TEST(ScenarioSpecTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ParseScenarioSpec("procs").ok());
  EXPECT_FALSE(ParseScenarioSpec("unknown_key=3").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=abc").ok());
  EXPECT_FALSE(ParseScenarioSpec("system=zfs").ok());
  EXPECT_FALSE(ParseScenarioSpec("layer=1").ok());  // SSD is never the first layer
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ppn=4 fail=after_writes fail_node=7").ok());
  // Chunk and metadata-range sizes divide offsets; sizes must not wrap.
  EXPECT_FALSE(ParseScenarioSpec("procs=4 chunk_mb=0").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 md_mb=0").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 chunk_mb=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 md_mb=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 mb=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 dram_mb=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 bb_mb=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ssd_mb=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 chunk_mb=17592186044416").ok());  // 2^44 MiB
  // OST counts divide stripe arithmetic; node counts size the machine.
  EXPECT_FALSE(ParseScenarioSpec("procs=4 osts=0").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 osts=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 bb_nodes=-1").ok());
  // Values beyond their int field are rejected, never wrapped.
  EXPECT_FALSE(ParseScenarioSpec("procs=4294967300 mb=1 workload=micro").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 steps=4294967297").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ec=4294967299+1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 mb=99999999999999999999").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 seed=-1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 compute=nan").ok());
  // One strict grammar: each key once, booleans 0 or 1, times finite and
  // >= 0, EC shard counts >= 1 and small enough that k + m fits an int.
  EXPECT_FALSE(ParseScenarioSpec("procs=4 procs=8 mb=1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ia=2 mb=1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 foc=5 mb=1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 compute=-1 workload=vpic mb=1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 compute=inf workload=vpic mb=1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 jobs=2 arrival=nan").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 osts=16 ec=2147483647+1").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ec=0+0 mb=1").ok());
}

TEST(ScenarioSpecTest, SamplerCoversErasureCoding) {
  bool saw_ec = false, saw_scrub = false, saw_ec_plan = false;
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    const ScenarioSpec spec = SampleScenario(seed);
    if (spec.ec_k > 0) {
      saw_ec = true;
      EXPECT_EQ(spec.system, SystemKind::kUniviStor);
      EXPECT_GE(spec.ec_m, 1);
      EXPECT_LE(spec.ec_k + spec.ec_m, spec.osts);
      saw_scrub |= spec.scrub;
      saw_ec_plan |= spec.failure == FailureMode::kPlan &&
                     spec.fault_plan.find("ostfail") != std::string::npos;
    } else {
      EXPECT_EQ(spec.ec_m, 0);
      EXPECT_FALSE(spec.scrub);
    }
  }
  EXPECT_TRUE(saw_ec) << "ec never sampled in 256 seeds";
  EXPECT_TRUE(saw_scrub) << "scrub never sampled in 256 seeds";
  EXPECT_TRUE(saw_ec_plan) << "no EC fault plan with an ostfail event in 256 seeds";
}

TEST(ScenarioSpecTest, EcKeysRoundTrip) {
  const auto parsed = ParseScenarioSpec(
      "seed=9 procs=8 ppn=4 osts=8 system=univistor workload=micro_read ec=3+2 scrub=1 "
      "fail=plan fplan=ostfail@0.001:ost=2;scrub@0.002 recov=1");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ec_k, 3);
  EXPECT_EQ(parsed->ec_m, 2);
  EXPECT_TRUE(parsed->scrub);
  const auto back = ParseScenarioSpec(parsed->ToString());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, *parsed);
}

TEST(ScenarioSpecTest, EcValidationRejectsInvalidCombinations) {
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ppn=4 system=lustre ec=3+2").ok());
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ppn=4 ec=3+0").ok());       // m must be >= 1
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ppn=4 osts=4 ec=3+2").ok());  // k+m > osts
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ppn=4 scrub=1").ok());      // scrub needs ec
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ppn=4 ec=3+").ok());        // malformed K+M
  EXPECT_FALSE(ParseScenarioSpec("procs=4 ppn=4 ec=32").ok());        // missing '+'
}

TEST(ScenarioSpecTest, ReproCommandEmbedsTheSpec) {
  const ScenarioSpec spec = SampleScenario(7);
  const std::string repro = spec.ReproCommand();
  EXPECT_NE(repro.find("uvfuzz --spec='"), std::string::npos);
  EXPECT_NE(repro.find(spec.ToString()), std::string::npos);
}

// --- Narrow checkers on synthetic inputs. ---

meta::MetadataRecord Record(Bytes offset, Bytes len) {
  return meta::MetadataRecord{.fid = 0, .offset = offset, .len = len, .producer = 1, .va = 0};
}

TEST(InvariantsTest, CoverageAcceptsDisjointFullCover) {
  InvariantReport report;
  CheckRecordCoverage({Record(0, 4), Record(4, 4), Record(8, 8)}, 16, "t", report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantsTest, CoverageDetectsMissingBytes) {
  InvariantReport report;
  CheckRecordCoverage({Record(0, 4), Record(8, 4)}, 16, "t", report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].invariant, "metadata-coverage");
}

TEST(InvariantsTest, CoverageDetectsOverlap) {
  InvariantReport report;
  CheckRecordCoverage({Record(0, 8), Record(4, 4)}, 12, "t", report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].detail.find("overlap"), std::string::npos);
}

TEST(InvariantsTest, PoolConservationDetectsOverdelivery) {
  sim::Engine engine;
  sim::FairSharePool pool(engine, {.name = "t", .capacity = 100.0});
  // 1000 bytes through a 100 B/s pool takes 10 s; after only 10 s of
  // virtual time the pool cannot have delivered more.
  auto task = [](sim::FairSharePool& p) -> sim::Task { co_await p.Transfer(1000); }(pool);
  engine.Spawn(std::move(task));
  engine.Run();
  InvariantReport clean;
  CheckPool(pool, clean);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST(InvariantsTest, QuiescenceDetectsStrandedProcess) {
  sim::Engine engine;
  sim::Event never(engine);
  engine.Spawn([](sim::Event& e) -> sim::Task { co_await e.Wait(); }(never), "stuck-proc");
  engine.Run();  // drains without ever triggering the event
  InvariantReport report;
  CheckQuiescence(engine, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].invariant, "quiescence");
  EXPECT_NE(report.violations[0].detail.find("stuck-proc"), std::string::npos);
}

TEST(Quiescence, StrandedLegIsReportedByItsProcess) {
  // A fan-out leg is not a process: when it strands, the report names the
  // process that started the fan-out, and nothing else.
  sim::Engine engine;
  sim::Event never(engine);
  engine.Spawn([](sim::Engine& e, sim::Event& ev) -> sim::Task {
    std::vector<sim::Task> legs;
    legs.push_back([](sim::Engine& eng) -> sim::Task { co_await eng.Delay(1.0); }(e));
    legs.push_back([](sim::Event& event) -> sim::Task { co_await event.Wait(); }(ev));
    co_await sim::WhenAll(e, std::move(legs));
  }(engine, never), "fan-out-proc");
  engine.Run();
  EXPECT_EQ(engine.UnfinishedProcessNames(), std::vector<std::string>{"fan-out-proc"});
  InvariantReport report;
  CheckQuiescence(engine, report);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].detail,
            "1 processes stranded after the event queue drained: 'fan-out-proc'");
}

TEST(InvariantsTest, ReportFormatsViolations) {
  InvariantReport report;
  EXPECT_EQ(report.ToString(), "all invariants hold");
  report.Add("x", "y");
  EXPECT_EQ(report.ToString(), "[x] y\n");
}

// --- Shrinker. ---

TEST(ShrinkTest, ReachesMinimalSpecForAlwaysFailingPredicate) {
  const ScenarioSpec big = SampleScenario(123);
  const auto result = Shrink(big, [](const ScenarioSpec&) { return true; }, 256);
  EXPECT_LE(result.spec.procs, 2);
  EXPECT_EQ(result.spec.steps, 1);
  EXPECT_EQ(result.spec.workload, workload::WorkloadKind::kMicro);
  EXPECT_EQ(result.spec.failure, FailureMode::kNone);
  EXPECT_EQ(result.spec.bytes_per_rank, 1_MiB);
}

TEST(ShrinkTest, KeepsFailureRelevantDimensions) {
  ScenarioSpec spec = SampleScenario(5);
  spec.procs = 16;
  spec.replicate_volatile = true;
  // The "bug" needs >= 8 procs and the replicate_volatile toggle on.
  const auto result = Shrink(spec, [](const ScenarioSpec& s) {
    return s.procs >= 8 && s.replicate_volatile;
  });
  EXPECT_EQ(result.spec.procs, 8);
  EXPECT_TRUE(result.spec.replicate_volatile);
}

TEST(ShrinkTest, DropsErasureDimensionsWhenIrrelevant) {
  ScenarioSpec spec = SampleScenario(7);
  spec.system = SystemKind::kUniviStor;
  spec.ec_k = 4;
  spec.ec_m = 2;
  spec.scrub = true;
  // The "bug" does not depend on EC at all, so the shrinker must strip it.
  const auto result = Shrink(spec, [](const ScenarioSpec&) { return true; }, 256);
  EXPECT_EQ(result.spec.ec_k, 0);
  EXPECT_EQ(result.spec.ec_m, 0);
  EXPECT_FALSE(result.spec.scrub);
}

TEST(ShrinkTest, KeepsErasureWhenTheBugNeedsIt) {
  ScenarioSpec spec = SampleScenario(7);
  spec.system = SystemKind::kUniviStor;
  spec.osts = std::max(spec.osts, 8);
  spec.ec_k = 4;
  spec.ec_m = 2;
  spec.scrub = true;
  const auto result =
      Shrink(spec, [](const ScenarioSpec& s) { return s.ec_k > 0; }, 256);
  EXPECT_GT(result.spec.ec_k, 0);
  EXPECT_GE(result.spec.ec_m, 1);
}

TEST(ShrinkTest, ReturnsOriginalWhenNothingSimplerFails) {
  const ScenarioSpec spec = SampleScenario(9);
  const auto result = Shrink(spec, [&spec](const ScenarioSpec& s) { return s == spec; });
  EXPECT_EQ(result.spec, spec);
}

TEST(ShrinkTest, RespectsAttemptBudget) {
  const ScenarioSpec spec = SampleScenario(11);
  const auto result = Shrink(spec, [](const ScenarioSpec&) { return true; }, 3);
  EXPECT_LE(result.attempts, 3);
}

// --- Full runs. ---

TEST(RunnerTest, CleanUniviStorRunHoldsAllInvariants) {
  ScenarioSpec spec = SampleScenario(2);  // univistor micro_read
  spec.system = SystemKind::kUniviStor;
  spec.failure = FailureMode::kNone;
  spec.jobs = 1;  // the classic single-job runner path
  const RunOutcome outcome = RunScenario(spec);
  EXPECT_TRUE(outcome.ok()) << outcome.report.ToString();
  ASSERT_FALSE(outcome.file_sizes.empty());
  // The workload wrote real data: header + procs * bytes_per_rank.
  Bytes total = 0;
  for (const auto& [name, size] : outcome.file_sizes) total += size;
  EXPECT_GT(total, static_cast<Bytes>(spec.procs) * spec.bytes_per_rank);
}

TEST(RunnerTest, RunScenarioIsDeterministic) {
  const ScenarioSpec spec = SampleScenario(4);
  const RunOutcome a = RunScenario(spec);
  const RunOutcome b = RunScenario(spec);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.file_sizes, b.file_sizes);
  EXPECT_EQ(a.report.violations.size(), b.report.violations.size());
}

TEST(RunnerTest, FailureInjectionAccountsLostBytesExactly) {
  ScenarioSpec spec = SampleScenario(2);
  spec.system = SystemKind::kUniviStor;
  spec.workload = workload::WorkloadKind::kMicroReadBack;
  spec.failure = FailureMode::kAfterWrites;  // point failure: single-job only
  spec.jobs = 1;
  spec.failed_node = 0;
  spec.flush_on_close = false;  // no PFS fallback -> volatile bytes are lost
  spec.replicate_volatile = false;
  spec.first_layer = 0;
  const RunOutcome outcome = RunScenario(spec);
  EXPECT_TRUE(outcome.ok()) << outcome.report.ToString();
  EXPECT_GT(outcome.lost_bytes, 0u);
  EXPECT_EQ(outcome.lost_bytes, outcome.expected_lost_bytes);
}

TEST(RunnerTest, ReplicationPreventsDataLoss) {
  ScenarioSpec spec = SampleScenario(2);
  spec.system = SystemKind::kUniviStor;
  spec.workload = workload::WorkloadKind::kMicroReadBack;
  spec.failure = FailureMode::kAfterWrites;  // point failure: single-job only
  spec.jobs = 1;
  spec.failed_node = 0;
  spec.flush_on_close = false;
  spec.replicate_volatile = true;  // BB replica saves the volatile layers
  spec.first_layer = 0;
  const RunOutcome outcome = RunScenario(spec);
  EXPECT_TRUE(outcome.ok()) << outcome.report.ToString();
  EXPECT_EQ(outcome.lost_bytes, 0u);
}

TEST(RunnerTest, FaultPlansArmOnEverySystem) {
  // An OST degraded to 1% for the first simulated second: armed on Lustre
  // too, so the run's clock covers the whole window.
  const auto spec = ParseScenarioSpec(
      "procs=4 system=lustre workload=vpic steps=1 mb=1 fail=plan "
      "fplan=ost@0+1:ost=0,factor=0.01");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const RunOutcome outcome = RunScenario(*spec);
  EXPECT_TRUE(outcome.ok()) << outcome.report.ToString();
  EXPECT_GE(outcome.sim_time, 1.0);
}

}  // namespace
}  // namespace uvs::testkit
