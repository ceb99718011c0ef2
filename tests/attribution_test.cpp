// Tests for obs::attribution: the category decomposition is an exact
// partition of each rank's wall clock, the critical path is deterministic,
// device USE rollups are sane, and degradation windows surface as spans.
#include <gtest/gtest.h>

#include <cmath>

#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

namespace uvs {
namespace {

using workload::MicroParams;
using workload::RunHdfMicro;
using workload::Scenario;
using workload::ScenarioOptions;

std::vector<obs::JobSpec> JobsOf(vmpi::Runtime& runtime) {
  std::vector<obs::JobSpec> jobs;
  for (int p = 0; p < runtime.program_count(); ++p)
    jobs.push_back({p, runtime.ProgramName(p), runtime.IsServer(p), runtime.ProgramSize(p)});
  return jobs;
}

/// Runs the micro-write workload traced and analyzed; `degrade_ost` < 0
/// leaves the hardware healthy.
obs::Report RunMicroAttributed(obs::Recorder& recorder, int degrade_ost = -1,
                               std::string* json_out = nullptr) {
  recorder.Install();
  obs::Report report;
  {
    ScenarioOptions options;
    options.procs = 64;
    options.policy = sched::PlacementPolicy::kInterferenceAware;
    options.cluster_params = hw::CoriPreset(64);
    options.cluster_params.seed = 42;
    Scenario scenario(options);
    if (degrade_ost >= 0) {
      hw::DeviceArray* pfs = &scenario.cluster().pfs();
      scenario.engine().Schedule(0.01, [pfs, degrade_ost] {
        pfs->Degrade(degrade_ost, 0.02);
      });
    }
    univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                                univistor::Config{});
    univistor::UniviStorDriver driver(system);
    auto app = scenario.runtime().LaunchProgram("app", 64);
    RunHdfMicro(scenario, app, driver,
                MicroParams{.bytes_per_proc = 64_MiB, .file_name = "a.h5"});
    scenario.cluster().pfs().FlushDegradeSpans();
    scenario.cluster().burst_buffer().FlushDegradeSpans();
    report = obs::Analyze(recorder, JobsOf(scenario.runtime()), scenario.engine().Now());
  }
  recorder.Uninstall();
  if (json_out != nullptr) *json_out = obs::AttributionJson(report);
  return report;
}

obs::Report RunVpicAttributed(obs::Recorder& recorder) {
  recorder.Install();
  obs::Report report;
  {
    ScenarioOptions options;
    options.procs = 64;
    options.policy = sched::PlacementPolicy::kInterferenceAware;
    options.cluster_params = hw::CoriPreset(64);
    options.cluster_params.seed = 7;
    Scenario scenario(options);
    univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                                univistor::Config{});
    univistor::UniviStorDriver driver(system);
    auto app = scenario.runtime().LaunchProgram("vpic", 64);
    workload::RunVpic(scenario, app, driver,
                      workload::VpicParams{.steps = 2,
                                           .vars = 4,
                                           .bytes_per_var = 4_MiB,
                                           .compute_time = 5.0,
                                           .file_prefix = "g"});
    report = obs::Analyze(recorder, JobsOf(scenario.runtime()), scenario.engine().Now());
  }
  recorder.Uninstall();
  return report;
}

// Acceptance bound from the PR issue: per-rank categories sum to that
// rank's elapsed within 0.1%.
void ExpectExactPartition(const obs::Report& report) {
  int checked = 0;
  for (const obs::JobBreakdown& job : report.jobs) {
    for (const obs::RankBreakdown& rank : job.ranks) {
      if (rank.elapsed() <= 0) continue;
      EXPECT_NEAR(rank.attributed(), rank.elapsed(), 1e-3 * rank.elapsed())
          << job.spec.name << " rank " << rank.rank;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << "analysis saw no ranks";
}

TEST(Attribution, MicroCategoriesSumToElapsedPerRank) {
  obs::Recorder recorder;
  const auto report = RunMicroAttributed(recorder);
  ExpectExactPartition(report);

  // The app job did real work in identifiable categories.
  const obs::JobBreakdown* app = nullptr;
  for (const auto& job : report.jobs)
    if (job.spec.name == "app") app = &job;
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(app->ranks.size(), 64u);
  double total = 0;
  for (double s : app->seconds) total += s;
  EXPECT_GT(total, 0.0);
  EXPECT_GT(app->seconds[static_cast<std::size_t>(obs::Category::kMeta)], 0.0)
      << "metadata RPC time visible";
  EXPECT_EQ(app->seconds[static_cast<std::size_t>(obs::Category::kDegraded)], 0.0)
      << "healthy run has no fault-degraded time";
}

TEST(Attribution, VpicCategoriesSumToElapsedPerRank) {
  obs::Recorder recorder;
  const auto report = RunVpicAttributed(recorder);
  ExpectExactPartition(report);

  // Compute phases (5 s per step, untraced gaps) must show up as compute.
  const obs::JobBreakdown* vpic = nullptr;
  for (const auto& job : report.jobs)
    if (job.spec.name == "vpic") vpic = &job;
  ASSERT_NE(vpic, nullptr);
  EXPECT_GT(vpic->seconds[static_cast<std::size_t>(obs::Category::kCompute)],
            5.0 * 64)  // at least one full compute step across 64 ranks
      << "untraced compute gaps attributed as compute";
}

TEST(Attribution, CriticalPathIsDeterministicAcrossIdenticalSeeds) {
  std::string a, b;
  {
    obs::Recorder recorder;
    RunMicroAttributed(recorder, -1, &a);
  }
  {
    obs::Recorder recorder;
    RunMicroAttributed(recorder, -1, &b);
  }
  EXPECT_EQ(a, b) << "attribution (incl. critical path) must be bit-identical";
}

TEST(Attribution, CriticalPathCoversTheSlowestRankWindow) {
  obs::Recorder recorder;
  const auto report = RunMicroAttributed(recorder);
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_EQ(report.critical_job, "app") << "servers are not eligible";
  // Segments are chronological, non-overlapping, and span the window.
  Time covered = 0;
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    const auto& seg = report.critical_path[i];
    EXPECT_GT(seg.end, seg.start);
    if (i > 0) {
      EXPECT_GE(seg.start, report.critical_path[i - 1].end - 1e-9);
    }
    covered += seg.duration();
  }
  EXPECT_NEAR(covered, report.critical_elapsed, 1e-3 * report.critical_elapsed);
}

TEST(Attribution, DeviceUseRollupsAreSane) {
  obs::Recorder recorder;
  const auto report = RunMicroAttributed(recorder);
  bool saw_ost = false, saw_md = false;
  for (const obs::DeviceUse& use : report.devices) {
    EXPECT_GE(use.utilization, 0.0) << use.device;
    EXPECT_LE(use.utilization, 1.0 + 1e-9) << use.device;
    EXPECT_GE(use.saturation, 0.0) << use.device;
    EXPECT_LE(use.busy, report.elapsed + 1e-9) << use.device;
    EXPECT_EQ(use.errors, 0) << use.device << ": healthy run";
    if (use.device.rfind("ost", 0) == 0) saw_ost = true;
    if (use.device.rfind("md", 0) == 0) saw_md = true;
  }
  EXPECT_TRUE(saw_ost) << "flush reached the OSTs";
  EXPECT_TRUE(saw_md) << "metadata servers saw RPCs";
}

TEST(Attribution, DegradedWindowsSurfaceAsSpansAndCategory) {
  obs::Recorder recorder;
  const auto report = RunMicroAttributed(recorder, /*degrade_ost=*/0);

  const obs::DeviceUse* ost0 = nullptr;
  for (const obs::DeviceUse& use : report.devices)
    if (use.device == "ost0") ost0 = &use;
  ASSERT_NE(ost0, nullptr);
  EXPECT_GE(ost0->errors, 1) << "open degrade window closed by FlushDegradeSpans";
  EXPECT_GT(ost0->degraded, 0.0);

  // Time spent transferring through the degraded window lands in the
  // degraded category for whoever waited on it.
  double degraded = 0;
  for (const auto& job : report.jobs)
    degraded += job.seconds[static_cast<std::size_t>(obs::Category::kDegraded)];
  EXPECT_GT(degraded, 0.0);
  ExpectExactPartition(report);
}

TEST(Attribution, SpanCapDropsAreCountedAndAnalysisSurvives) {
  obs::Recorder recorder;
  recorder.SetSpanLimit(16);
  const auto report = RunMicroAttributed(recorder);
  EXPECT_EQ(recorder.span_count(), 16u);
  EXPECT_GT(recorder.spans_dropped(), 0u);
  // Attribution on the truncated trace still partitions what it saw.
  ExpectExactPartition(report);
  EXPECT_NE(recorder.MetricsJson(1.0).find("\"spans_dropped\":"), std::string::npos);
}

TEST(Attribution, CausalDescentFollowsLinksAndParentIds) {
  // One rank op (id 1) whose metadata leg names it as parent, and a link to
  // id 2, which two later spans carry: the first one emitted owns the id.
  using obs::Category;
  obs::Recorder recorder;
  const obs::Track rank = obs::Track::Rank(0, 0, 0);
  recorder.AddSpanTagged("vmpi", "close", rank, 0.0, 10.0, obs::kNoBytes, {.self = {1}});
  recorder.AddSpanTagged("meta", "rpc.service", obs::Track::MetaServer(0, 0), 0.0, 4.0,
                         obs::kNoBytes, {.cat = Category::kMeta, .parent = {1}});
  recorder.AddSpanTagged("hw", "ost.access", obs::Track::Ost(0), 4.0, 10.0, 64,
                         {.cat = Category::kPfs, .self = {2}});
  recorder.AddSpanTagged("hw", "bb.access", obs::Track::BbNode(0), 4.0, 10.0, 64,
                         {.cat = Category::kBb, .self = {2}});
  recorder.AddLink({1}, {2});
  recorder.AddLink({1}, {7});  // never emitted: resolves to nothing
  const obs::Report report = obs::Analyze(recorder, {{0, "app", false, 1}}, 10.0);
  ASSERT_EQ(report.critical_path.size(), 2u);
  EXPECT_EQ(report.critical_path[0].name, "rpc.service");
  EXPECT_EQ(report.critical_path[0].category, Category::kMeta);
  EXPECT_EQ(report.critical_path[1].name, "ost.access");
  EXPECT_EQ(report.critical_path[1].category, Category::kPfs);
  EXPECT_EQ(report.critical_path[1].where, "ost 0 / device");
}

TEST(Attribution, TextReportMentionsEveryJob) {
  obs::Recorder recorder;
  const auto report = RunMicroAttributed(recorder);
  const std::string text = obs::ToText(report);
  EXPECT_NE(text.find("app"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("device USE"), std::string::npos);
}

}  // namespace
}  // namespace uvs
