// Bounded fuzz smoke test: the first 64 seeds of the scenario sampler run
// end to end with every invariant checked (including the Lustre
// differential read-back). A failure message carries the one-line repro
// command so the scenario can be replayed and shrunk with tools/uvfuzz.
#include <gtest/gtest.h>

#include "src/obs/recorder.hpp"
#include "src/testkit/runner.hpp"
#include "src/testkit/scenario_spec.hpp"

namespace uvs::testkit {
namespace {

constexpr std::uint64_t kSeeds = 64;
constexpr std::uint64_t kBaseSeed = 1;  // matches the uvfuzz default

TEST(FuzzSmokeTest, FirstSixtyFourSeedsHoldAllInvariants) {
  int failures = 0;
  for (std::uint64_t seed = kBaseSeed; seed < kBaseSeed + kSeeds; ++seed) {
    const ScenarioSpec spec = SampleScenario(seed);
    const RunOutcome outcome = RunScenario(spec);
    if (!outcome.ok()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " violated invariants:\n"
                    << outcome.report.ToString() << "repro: " << spec.ReproCommand();
      if (failures >= 3) break;  // keep the log readable on a broken tree
    }
    // Every scenario must do real work, or the fuzzer fuzzes nothing.
    EXPECT_FALSE(outcome.file_sizes.empty()) << "seed " << seed << " produced no files";

    // Observing a run never changes it: with a recorder installed every
    // leg takes its traced path, and the run must end exactly the same.
    obs::Recorder recorder;
    recorder.Install();
    const RunOutcome observed = RunScenario(spec);
    recorder.Uninstall();
    EXPECT_EQ(observed.ok(), outcome.ok()) << "seed " << seed << ": " << spec.ReproCommand();
    EXPECT_EQ(observed.sim_time, outcome.sim_time) << "seed " << seed;
    EXPECT_EQ(observed.file_sizes, outcome.file_sizes) << "seed " << seed;
    EXPECT_EQ(observed.lost_bytes, outcome.lost_bytes) << "seed " << seed;
  }
}

// EC slice of the fuzz space: every seed in the first 256 whose sampled
// spec enables erasure coding runs with the full invariant battery (parity
// consistency after quiescence, lost_bytes == 0 while failures <= m). The
// sampler gives ~25% of UniviStor seeds EC, so this also guards against the
// EC sampling rate silently collapsing.
TEST(FuzzSmokeTest, EcSeedsInFirstTwoFiftySixHoldErasureInvariants) {
  int ec_runs = 0;
  int failures = 0;
  for (std::uint64_t seed = kBaseSeed; seed < kBaseSeed + 256; ++seed) {
    const ScenarioSpec spec = SampleScenario(seed);
    if (spec.ec_k == 0) continue;
    ++ec_runs;
    const RunOutcome outcome = RunScenario(spec);
    if (!outcome.ok()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " violated invariants:\n"
                    << outcome.report.ToString() << "repro: " << spec.ReproCommand();
      if (failures >= 3) break;  // keep the log readable on a broken tree
    }
  }
  EXPECT_GE(ec_runs, 20) << "EC sampling rate collapsed";
}

// Hand-written specs for edges the sampler never draws. A zero-byte
// workload writes nothing, so every file it names must stay empty: a
// zero-length UniviStor write once extended its file to the write offset
// while Lustre exposed 0 bytes.
TEST(FuzzSmokeTest, HandWrittenEdgeSpecsHoldAllInvariants) {
  for (const char* text :
       {"procs=4 mb=0 workload=micro", "procs=4 mb=0 workload=micro_read",
        "procs=4 mb=0 workload=vpic", "procs=4 mb=0 workload=workflow",
        "procs=4 mb=0 workload=micro jobs=2"}) {
    const auto spec = ParseScenarioSpec(text);
    ASSERT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
    const RunOutcome outcome = RunScenario(*spec);
    EXPECT_TRUE(outcome.ok()) << text << "\n" << outcome.report.ToString();
    EXPECT_FALSE(outcome.file_sizes.empty()) << text;
    for (const auto& [name, size] : outcome.file_sizes)
      EXPECT_EQ(size, 0u) << text << ": " << name;
  }
}

}  // namespace
}  // namespace uvs::testkit
