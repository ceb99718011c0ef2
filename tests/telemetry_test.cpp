// Always-on telemetry battery: the quantile sketch's relative-error
// guarantee against the exact nearest-rank quantile (256-seed property
// test, including after Merge and under bucket collapse), the hand-computed
// SLO multi-window burn-rate semantics, the flight-recorder ring, and the
// cluster integration — sketch vs exact QoS quantiles, deterministic
// telemetry/slo JSON, and tail-based span retention under a tight cap.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/arrival.hpp"
#include "src/cluster/job.hpp"
#include "src/cluster/simulation.hpp"
#include "src/common/json.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sketch.hpp"
#include "src/obs/slo.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

// --- quantile sketch ----------------------------------------------------

/// The documented accuracy contract: within relative_error of the exact
/// nearest-rank quantile over the same samples (plus float slack).
void ExpectWithinBound(const obs::QuantileSketch& sketch, std::vector<double> values,
                       const std::string& label) {
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double exact = cluster::Quantile(values, q);
    const double est = sketch.Quantile(q);
    EXPECT_NEAR(est, exact, sketch.relative_error() * exact + 1e-9)
        << label << " q=" << q;
  }
}

TEST(QuantileSketch, TracksExactNearestRankAcross256Seeds) {
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    std::mt19937_64 rng(seed);
    const int n = 32 + static_cast<int>(seed % 240);
    obs::QuantileSketch sketch;
    obs::QuantileSketch half_a, half_b;
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      double x;
      switch (seed % 3) {
        case 0: x = std::uniform_real_distribution<>(1e-3, 50.0)(rng); break;
        case 1: x = std::exp(std::normal_distribution<>(0.0, 2.0)(rng)); break;
        default:  // heavy tail, spanning many orders of magnitude
          x = 1.0 / std::pow(std::uniform_real_distribution<>(1e-4, 1.0)(rng), 1.5);
      }
      values.push_back(x);
      sketch.Add(x);
      (i % 2 == 0 ? half_a : half_b).Add(x);
    }
    const std::string label = "seed " + std::to_string(seed);
    ASSERT_EQ(sketch.count(), static_cast<std::uint64_t>(n)) << label;
    ExpectWithinBound(sketch, values, label);

    // Merge is lossless for same-error sketches: the merged halves obey
    // the same bound over the union.
    half_a.Merge(half_b);
    ASSERT_EQ(half_a.count(), static_cast<std::uint64_t>(n)) << label;
    ExpectWithinBound(half_a, values, label + " merged");
  }
}

TEST(QuantileSketch, CollapseBoundsMemoryAndKeepsTheTail) {
  // e^28 of dynamic range needs ~700 buckets at 2% error; capping at 128
  // forces the lowest ~80% of the log-range to collapse while the
  // surviving top buckets still cover everything above ~p90.
  obs::QuantileSketch sketch(0.02, 128);
  std::vector<double> values;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 4000; ++i) {
    const double x = std::exp(std::uniform_real_distribution<>(-14.0, 14.0)(rng));
    values.push_back(x);
    sketch.Add(x);
  }
  EXPECT_LE(sketch.bucket_count(), 128u);
  EXPECT_GT(sketch.collapsed(), 0u) << "28 e-folds cannot fit in 128 buckets";
  // Low quantiles lost accuracy to the collapse, but the tail — what the
  // SLOs watch — still honors the bound.
  for (const double q : {0.95, 0.99, 1.0}) {
    const double exact = cluster::Quantile(values, q);
    EXPECT_NEAR(sketch.Quantile(q), exact, sketch.relative_error() * exact + 1e-9)
        << "q=" << q;
  }
}

TEST(QuantileSketch, HandlesZeroAndNegativeSamples) {
  obs::QuantileSketch sketch;
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0) << "empty sketch";
  sketch.Add(0.0);
  sketch.Add(-3.0);
  sketch.Add(5.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.zero_count(), 2u);
  EXPECT_DOUBLE_EQ(sketch.min(), -3.0);
  // Non-positive samples hold ranks at the bottom and report as min().
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.3), -3.0);
  EXPECT_NEAR(sketch.Quantile(1.0), 5.0, 0.02 * 5.0);
}

TEST(QuantileSketch, JsonIsDeterministicAndInsertionOrderFree) {
  obs::QuantileSketch a, b;
  const std::vector<double> values = {4.0, 0.25, 1.0, 16.0, 2.0};
  for (double v : values) a.Add(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) b.Add(*it);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  auto doc = json::Parse(a.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_DOUBLE_EQ(doc->NumberOr("count", 0), 5.0);
}

// --- SLO burn-rate tracking (hand-computed windows) ---------------------

obs::SloSpec StretchSpec() {
  obs::SloSpec spec;
  spec.metric = "stretch";
  spec.threshold = 2.0;
  spec.budget = 0.25;
  spec.fast_window = 1.0;
  spec.slow_window = 10.0;
  spec.alert_burn = 2.0;
  return spec;
}

TEST(SloTracker, MultiWindowBurnMatchesHandComputation) {
  obs::SloTracker t(StretchSpec());

  EXPECT_FALSE(t.Record(0.0, 1.0));  // good
  EXPECT_DOUBLE_EQ(t.FastBurn(0.0), 0.0);
  EXPECT_EQ(t.alerts(), 0u);

  // t=0.5 bad: fast window (-0.5, 0.5] holds {good, bad} -> bad fraction
  // 0.5 -> burn 0.5/0.25 = 2.0 in both windows -> first alert.
  EXPECT_TRUE(t.Record(0.5, 3.0));
  EXPECT_DOUBLE_EQ(t.FastBurn(0.5), 2.0);
  EXPECT_DOUBLE_EQ(t.SlowBurn(0.5), 2.0);
  EXPECT_EQ(t.alerts(), 1u);
  EXPECT_TRUE(t.alerting());

  // t=0.6 bad: fast window holds 3 events, 2 bad -> (2/3)/0.25 = 8/3.
  // Still alerting — edge-triggered, so no second alert.
  EXPECT_TRUE(t.Record(0.6, 3.0));
  EXPECT_NEAR(t.FastBurn(0.6), 8.0 / 3.0 / 1.0, 1e-12);
  EXPECT_EQ(t.alerts(), 1u);

  // t=2.0 good: fast window (1.0, 2.0] holds only this event -> burn 0,
  // alert condition clears.
  EXPECT_FALSE(t.Record(2.0, 1.0));
  EXPECT_DOUBLE_EQ(t.FastBurn(2.0), 0.0);
  EXPECT_FALSE(t.alerting());
  EXPECT_DOUBLE_EQ(t.SlowBurn(2.0), 2.0);  // 2 bad of 4 -> 0.5/0.25

  // t=2.1 bad: fast {good@2.0, bad@2.1} -> 2.0; slow 3 bad of 5 -> 2.4.
  // Both over the alert burn again -> second (re-triggered) alert.
  EXPECT_TRUE(t.Record(2.1, 3.0));
  EXPECT_DOUBLE_EQ(t.FastBurn(2.1), 2.0);
  EXPECT_NEAR(t.SlowBurn(2.1), 2.4, 1e-12);
  EXPECT_EQ(t.alerts(), 2u);

  EXPECT_EQ(t.total(), 5u);
  EXPECT_EQ(t.bad(), 3u);
  EXPECT_NEAR(t.budget_consumed(), (3.0 / 5.0) / 0.25, 1e-12);  // 2.4
  EXPECT_NEAR(t.peak_fast_burn(), 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(t.peak_slow_burn(), 8.0 / 3.0, 1e-12);
  EXPECT_STREQ(t.verdict(), "breached");
}

TEST(SloTracker, ZeroToleranceLostBudgetBreachesOnOneLoss) {
  obs::SloSpec spec;
  spec.metric = "lost";
  spec.threshold = 0.0;
  spec.budget = 1e-3;
  obs::SloTracker t(spec);
  EXPECT_FALSE(t.Record(0.1, 0.0)) << "zero lost bytes is good";
  EXPECT_STREQ(t.verdict(), "ok");
  EXPECT_TRUE(t.Record(0.2, 4096.0));
  // One loss in two events: (1/2)/0.001 = 500 >> alert burn in both
  // windows -> immediate breach, finite burn (capped, never inf).
  EXPECT_DOUBLE_EQ(t.budget_consumed(), 500.0);
  EXPECT_EQ(t.alerts(), 1u);
  EXPECT_STREQ(t.verdict(), "breached");
}

TEST(SloTracker, ShortBlipIsAtRiskNotBreached) {
  obs::SloTracker t(StretchSpec());
  // A long healthy run, then one bad event: the fast window spikes to the
  // alert burn but the slow window stays calm, so no alert fires — the
  // multi-window rule's whole point.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(t.Record(static_cast<Time>(i), 1.0));
  EXPECT_TRUE(t.Record(9.1, 3.0));
  EXPECT_DOUBLE_EQ(t.peak_fast_burn(), 2.0);  // {good@9, bad@9.1}
  EXPECT_LT(t.SlowBurn(9.1), 2.0);            // (1/11)/0.25
  EXPECT_EQ(t.alerts(), 0u);
  EXPECT_LT(t.budget_consumed(), 0.5);
  EXPECT_STREQ(t.verdict(), "at_risk");
}

TEST(SloSpec, ParsesAndRoundTrips) {
  auto specs = obs::ParseSloSpecs("stretch<=4:budget=0.25;wait<=1;lost<=0:budget=0.001");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].Label(), "stretch<=4");
  EXPECT_DOUBLE_EQ((*specs)[0].budget, 0.25);
  EXPECT_EQ((*specs)[2].metric, "lost");

  auto round = obs::ParseSloSpecs((*specs)[0].ToString());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ((*round)[0].ToString(), (*specs)[0].ToString());

  EXPECT_FALSE(obs::ParseSloSpecs("").ok());
  EXPECT_FALSE(obs::ParseSloSpecs("stretch=4").ok()) << "no <= operator";
  EXPECT_FALSE(obs::ParseSloSpecs("iops<=5").ok()) << "unknown metric";
  EXPECT_FALSE(obs::ParseSloSpecs("stretch<=4:budget=2").ok()) << "budget > 1";
  EXPECT_FALSE(obs::ParseSloSpecs("stretch<=4:fast=5,slow=1").ok()) << "slow < fast";
  for (const char* bad : {"stretch<=abc", "stretch<=nan", "stretch<=-1", "stretch<=4:fast=nan",
                          "stretch<=4:slow=inf", "stretch<=4:burn=1e999", "stretch<=4:budget=xyz",
                          "stretch<=4:budget=0.5,budget=0.1", "stretch<=4:budget=0"})
    EXPECT_FALSE(obs::ParseSloSpecs(bad).ok()) << bad;
  // Blanks around entries, keys and values are ignored.
  auto spaced = obs::ParseSloSpecs(" wait <= 2 : budget = 0.5 , burn = 3 ;");
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  EXPECT_EQ((*spaced)[0].ToString(), "wait<=2:budget=0.5,fast=1,slow=10,burn=3");
}

// --- flight recorder ----------------------------------------------------

TEST(FlightRecorder, RingWrapsAndKeepsTheNewest) {
  obs::FlightRecorder flight(4);
  flight.Install();
  for (int i = 0; i < 6; ++i)
    obs::FlightNote(static_cast<Time>(i), "test", "note" + std::to_string(i),
                    static_cast<double>(i));
  flight.Uninstall();
  EXPECT_EQ(flight.total_noted(), 6u);
  EXPECT_EQ(flight.size(), 4u);

  auto doc = json::Parse(flight.ToJson("unit-test"));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringOr("schema", ""), "univistor.flight.v1");
  EXPECT_EQ(doc->StringOr("reason", ""), "unit-test");
  const json::Value* entries = doc->Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  ASSERT_EQ(entries->AsArray().size(), 4u);
  // Oldest surviving entry first: notes 2..5.
  EXPECT_EQ(entries->AsArray()[0].StringOr("what", ""), "note2");
  EXPECT_EQ(entries->AsArray()[3].StringOr("what", ""), "note5");
}

TEST(FlightRecorder, DumpWritesJsonOnlyWithAPath) {
  obs::FlightRecorder flight;
  flight.Install();
  obs::FlightNote(1.0, "fault", "node-crash", 3.0, "detail");
  // No dump path: Dump is a silent no-op so tests can install freely.
  ASSERT_TRUE(flight.Dump("no-path").ok());
  EXPECT_EQ(flight.dumps(), 0u);

  const std::string path = testing::TempDir() + "/uvs_flight_dump_test.json";
  flight.SetDumpPath(path);
  ASSERT_TRUE(flight.Dump("unit-crash").ok());
  flight.Uninstall();
  EXPECT_EQ(flight.dumps(), 1u);
  EXPECT_EQ(flight.last_reason(), "unit-crash");
  auto doc = json::ParseFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringOr("reason", ""), "unit-crash");
  std::remove(path.c_str());
}

TEST(FlightRecorder, NoteWithoutInstalledRecorderIsSafe) {
  ASSERT_EQ(obs::FlightRecorder::Current(), nullptr);
  obs::FlightNote(0.0, "test", "dropped on the floor");
  ASSERT_TRUE(obs::FlightDump("nothing-installed").ok());
}

TEST(FlightRecorder, BindingIsPerThread) {
  // Regression for the old process-wide singleton: a recorder installed on
  // one thread must be invisible to every other thread, so concurrent
  // worker-pool runs can never interleave notes into one ring.
  obs::FlightRecorder main_ring(8);
  main_ring.Install();
  obs::FlightNote(1.0, "test", "main-before");

  obs::FlightRecorder worker_ring(8);
  std::thread worker([&worker_ring] {
    // A fresh thread starts unbound even while the main thread has a
    // recorder installed.
    EXPECT_EQ(obs::FlightRecorder::Current(), nullptr);
    obs::FlightNote(2.0, "test", "dropped-unbound");
    {
      obs::FlightRecorder::ScopedBind bind(worker_ring);
      EXPECT_EQ(obs::FlightRecorder::Current(), &worker_ring);
      obs::FlightNote(3.0, "test", "worker-note");
    }
    EXPECT_EQ(obs::FlightRecorder::Current(), nullptr);
  });
  worker.join();

  // The worker's binding and notes never touched the main thread's ring.
  EXPECT_EQ(obs::FlightRecorder::Current(), &main_ring);
  obs::FlightNote(4.0, "test", "main-after");
  main_ring.Uninstall();
  EXPECT_EQ(main_ring.total_noted(), 2u);
  EXPECT_EQ(worker_ring.total_noted(), 1u);
  const std::string json = main_ring.ToJson("unit-test");
  EXPECT_EQ(json.find("worker-note"), std::string::npos);
  EXPECT_EQ(json.find("dropped-unbound"), std::string::npos);
}

// --- cluster integration ------------------------------------------------

/// Small contended machine (mirrors the cluster smoke battery's shape).
workload::ScenarioOptions SmallMachineOptions(std::uint64_t seed) {
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

cluster::MixParams TelemetryMix() {
  cluster::MixParams mix;
  mix.jobs = 6;
  mix.mean_interarrival = 0.005;
  mix.bb_bound = true;
  return mix;
}

struct ClusterTelemetryRun {
  std::vector<double> stretches;
  double sketch_p50 = 0;
  double sketch_p99 = 0;
  double relative_error = 0;
  std::string telemetry_json;
  std::string slo_json;
  std::string first_tenant;
  bool tenant_sketch_present = false;
};

ClusterTelemetryRun RunClusterWithTelemetry(std::uint64_t seed) {
  workload::Scenario scenario(SmallMachineOptions(seed));
  cluster::ClusterOptions options;
  options.policy = cluster::Policy::kBbAware;
  options.base_config.chunk_size = 1_MiB;
  options.telemetry.enabled = true;
  cluster::ClusterSim sim(scenario, cluster::SampleJobMix(seed, TelemetryMix()), options);
  sim.Run();

  ClusterTelemetryRun out;
  for (const cluster::JobQos& qos : sim.qos())
    if (qos.completed()) out.stretches.push_back(qos.stretch());
  const obs::QuantileSketch sketch = sim.ClusterStretchSketch();
  out.sketch_p50 = sketch.Quantile(0.5);
  out.sketch_p99 = sketch.Quantile(0.99);
  out.relative_error = sketch.relative_error();
  out.telemetry_json = sim.TelemetryJson();
  out.slo_json = sim.SloJson();
  out.first_tenant = cluster::ClusterSim::TenantKey(sim.spec(0));
  out.tenant_sketch_present = sim.TenantStretchSketch(out.first_tenant) != nullptr;
  return out;
}

TEST(ClusterTelemetry, SketchAgreesWithExactQosQuantiles) {
  const ClusterTelemetryRun run = RunClusterWithTelemetry(12);
  ASSERT_FALSE(run.stretches.empty());
  EXPECT_TRUE(run.tenant_sketch_present) << run.first_tenant;
  const double exact_p50 = cluster::Quantile(run.stretches, 0.5);
  const double exact_p99 = cluster::Quantile(run.stretches, 0.99);
  EXPECT_NEAR(run.sketch_p50, exact_p50, run.relative_error * exact_p50 + 1e-9);
  EXPECT_NEAR(run.sketch_p99, exact_p99, run.relative_error * exact_p99 + 1e-9);

  auto telemetry = json::Parse(run.telemetry_json);
  ASSERT_TRUE(telemetry.ok()) << telemetry.status().ToString();
  EXPECT_EQ(telemetry->StringOr("schema", ""), "univistor.telemetry.v1");
  auto slo = json::Parse(run.slo_json);
  ASSERT_TRUE(slo.ok()) << slo.status().ToString();
  EXPECT_EQ(slo->StringOr("schema", ""), "univistor.slo.v1");
  const json::Value* trackers = slo->Find("cluster");
  ASSERT_NE(trackers, nullptr);
  ASSERT_TRUE(trackers->is_array());
  EXPECT_EQ(trackers->AsArray().size(), obs::DefaultSloSpecs().size());
}

TEST(ClusterTelemetry, SameSeedEmitsIdenticalJson) {
  const ClusterTelemetryRun a = RunClusterWithTelemetry(12);
  const ClusterTelemetryRun b = RunClusterWithTelemetry(12);
  EXPECT_EQ(a.telemetry_json, b.telemetry_json) << "bit-identical telemetry block";
  EXPECT_EQ(a.slo_json, b.slo_json) << "bit-identical slo block";
}

TEST(ClusterTelemetry, TailRetentionPrunesBoringJobsUnderACap) {
  obs::Recorder recorder;
  recorder.SetSpanLimit(512);
  recorder.Install();
  workload::Scenario scenario(SmallMachineOptions(12));
  cluster::ClusterOptions options;
  options.policy = cluster::Policy::kBbAware;
  options.base_config.chunk_size = 1_MiB;
  options.telemetry.enabled = true;
  cluster::ClusterSim sim(scenario, cluster::SampleJobMix(12, TelemetryMix()), options);
  sim.Run();
  recorder.Uninstall();
  EXPECT_GT(sim.completed_jobs(), 0);
  EXPECT_GT(recorder.spans_pruned(), 0u)
      << "a 512-span cap must force tail-based eviction";
  EXPECT_LE(recorder.span_count(), recorder.span_limit());
  // The run report makes the eviction visible.
  auto doc = json::Parse(recorder.MetricsJson(scenario.engine().Now()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_GT(doc->NumberOr("spans_pruned", 0), 0.0);

  // A job whose client rank spans were all evicted keeps none of its
  // storage servers' spans either, on their rank or metadata-server lanes.
  std::map<int, std::size_t> spans_of;  // program -> spans left on its lanes
  recorder.ForEachSpan([&](obs::Recorder::SpanId, const obs::Recorder::SpanEvent& span) {
    const obs::Track& track = recorder.track(span);
    if (track.kind == obs::Track::Kind::kRank || track.kind == obs::Track::Kind::kMetaServer)
      ++spans_of[track.program];
  });
  const vmpi::Runtime& runtime = scenario.runtime();
  int evicted = 0;
  for (int j = 0; j < sim.job_count(); ++j) {
    const univistor::UniviStor* system = sim.system(j);
    if (system == nullptr) continue;
    int client = -1;
    for (int p = 0; p < runtime.program_count(); ++p)
      if (runtime.ProgramName(p) == sim.spec(j).Name()) client = p;
    ASSERT_GE(client, 0) << sim.spec(j).Name();
    if (spans_of[client] != 0) continue;
    ++evicted;
    EXPECT_EQ(spans_of[system->server_program()], 0u)
        << sim.spec(j).Name() << ": its servers' spans outlived its clients'";
  }
  EXPECT_GT(evicted, 0) << "some job lost all its client rank spans";
}

}  // namespace
}  // namespace uvs
