// Tests for obs::attribution: the category decomposition is an exact
// partition of each rank's wall clock, the critical path is deterministic,
// device USE rows are sane and read the devices' own counters, and
// degradation windows surface as spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>

#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

namespace uvs {
namespace {

using workload::MicroParams;
using workload::RunHdfMicro;
using workload::Scenario;
using workload::ScenarioOptions;

/// Sees a finished run and its report before the run is torn down.
using Inspect = std::function<void(Scenario&, const obs::Report&)>;

/// Runs the micro-write workload traced and analyzed the way uvsim
/// --attribution does; `degrade_ost` < 0 leaves the hardware healthy.
obs::Report RunMicroAttributed(obs::Recorder& recorder, int degrade_ost = -1,
                               std::string* json_out = nullptr, const Inspect& inspect = {}) {
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
    report = workload::AnalyzeRun(recorder, scenario, &system);
    if (inspect) inspect(scenario, report);
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
    report = workload::AnalyzeRun(recorder, scenario, &system);
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
  std::vector<std::pair<int, int>> order;  // (md 0 / bb 1 / ost 2, index)
  for (const obs::DeviceUse& use : report.devices) {
    EXPECT_GT(use.busy, 0.0) << use.device << ": only devices that served are listed";
    EXPECT_LE(use.busy, report.elapsed + 1e-9) << use.device;
    EXPECT_DOUBLE_EQ(use.utilization, use.busy / report.elapsed) << use.device;
    EXPECT_GE(use.saturation, 0.0) << use.device;
    EXPECT_EQ(use.errors, 0) << use.device << ": healthy run";
    EXPECT_EQ(use.degraded, 0.0) << use.device;
    const int cls = use.device.rfind("md", 0) == 0 ? 0 : use.device.rfind("bb", 0) == 0 ? 1 : 2;
    order.emplace_back(cls, std::stoi(use.device.substr(cls == 2 ? 3 : 2)));
    saw_md |= cls == 0;
    saw_ost |= cls == 2;
  }
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end())) << "md, bb, ost, each by index";
  EXPECT_TRUE(saw_ost) << "flush reached the OSTs";
  EXPECT_TRUE(saw_md) << "metadata servers saw RPCs";
}

TEST(Attribution, DegradedWindowsSurfaceAsSpansAndCategory) {
  obs::Recorder recorder;
  Time window_end = 0;
  const auto report = RunMicroAttributed(recorder, /*degrade_ost=*/0, nullptr,
                                         [&](Scenario& scenario, const obs::Report&) {
                                           window_end = scenario.engine().Now();
                                         });

  const obs::DeviceUse* ost0 = nullptr;
  for (const obs::DeviceUse& use : report.devices)
    if (use.device == "ost0") ost0 = &use;
  ASSERT_NE(ost0, nullptr);
  // One window opened at 0.01 s and still open at the end of the run.
  EXPECT_EQ(ost0->errors, 1);
  EXPECT_NEAR(ost0->degraded, window_end - 0.01, 1e-12);

  // FlushDegradeSpans closed the open window into a span on OST 0.
  int degraded_spans = 0;
  recorder.ForEachSpan([&](obs::Recorder::SpanId, const obs::Recorder::SpanEvent& span) {
    if (recorder.track(span) == obs::Track::Ost(0) && span.cat == obs::Category::kDegraded)
      ++degraded_spans;
  });
  EXPECT_GE(degraded_spans, 1);

  // Time spent transferring through the degraded window lands in the
  // degraded category for whoever waited on it.
  double degraded = 0;
  for (const auto& job : report.jobs)
    degraded += job.seconds[static_cast<std::size_t>(obs::Category::kDegraded)];
  EXPECT_GT(degraded, 0.0);
  ExpectExactPartition(report);
}

/// The report's device rows exactly as the run report serializes them.
std::string DeviceRowsJson(const obs::Report& report) {
  const std::string json = obs::AttributionJson(report);
  return json.substr(json.find("\"devices\":"));
}

TEST(Attribution, DeviceRowsDoNotDependOnTheSpanCap) {
  // A degraded OST too, so the degraded and error columns are covered.
  std::vector<std::string> rows;
  for (const std::size_t limit : {std::size_t{0}, std::size_t{16},
                                  std::numeric_limits<std::size_t>::max()}) {
    obs::Recorder recorder;
    recorder.SetSpanLimit(limit);
    const Inspect check_against_counters = [&](Scenario& scenario, const obs::Report& report) {
      // With every span kept, a metadata server's busy time is the sum of
      // its rpc.service spans, added in emission order, bit for bit, and an
      // OST's busy time is its pool's.
      std::map<std::int64_t, Time> service;
      recorder.ForEachSpan([&](obs::Recorder::SpanId, const obs::Recorder::SpanEvent& span) {
        const obs::Track& track = recorder.track(span);
        if (track.kind == obs::Track::Kind::kMetaServer)
          service[track.index] += span.end - span.start;
      });
      int md_rows = 0, ost_rows = 0;
      for (const obs::DeviceUse& use : report.devices) {
        if (use.device.rfind("md", 0) == 0) {
          EXPECT_EQ(use.busy, service.at(std::stoi(use.device.substr(2)))) << use.device;
          ++md_rows;
        } else if (use.device.rfind("ost", 0) == 0) {
          const int ost = std::stoi(use.device.substr(3));
          EXPECT_EQ(use.busy, scenario.cluster().pfs().pool(ost).busy_time()) << use.device;
          ++ost_rows;
        }
      }
      EXPECT_EQ(md_rows, static_cast<int>(service.size()));
      EXPECT_GT(ost_rows, 0);
    };
    const obs::Report report =
        RunMicroAttributed(recorder, /*degrade_ost=*/0, nullptr,
                           limit == std::numeric_limits<std::size_t>::max()
                               ? check_against_counters
                               : Inspect{});
    EXPECT_EQ(recorder.spans_dropped() > 0, limit != std::numeric_limits<std::size_t>::max());
    rows.push_back(DeviceRowsJson(report));
  }
  EXPECT_NE(rows[2].find("\"ost0\""), std::string::npos);
  EXPECT_EQ(rows[0], rows[2]) << "no span stored";
  EXPECT_EQ(rows[1], rows[2]) << "16 spans stored";
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
  recorder.AddSpanTagged("meta", "rpc.service", obs::Track::MetaServer(0, 1, 0), 0.0, 4.0,
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
