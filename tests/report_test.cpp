// Tests for the JSON parser, run-report schema validation, and the
// uvreport diff logic (the CI regression gate).
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/json.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/report.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

// --- json parser --------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  auto doc = json::Parse(R"({"a":1.5,"b":[true,false,null],"c":{"d":"x\n\"y\""},"e":-2e3})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_DOUBLE_EQ(doc->NumberOr("a", 0), 1.5);
  const json::Value* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->AsArray().size(), 3u);
  EXPECT_TRUE(b->AsArray()[0].AsBool());
  EXPECT_TRUE(b->AsArray()[2].is_null());
  const json::Value* c = doc->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->StringOr("d", ""), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(doc->NumberOr("e", 0), -2000.0);
}

TEST(Json, ParsesUnicodeEscapes) {
  auto doc = json::Parse(R"(["Aé€"])");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsArray()[0].AsString(), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{}x").ok()) << "trailing garbage";
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok()) << "trailing comma";
  EXPECT_FALSE(json::Parse("[1 2]").ok());
  EXPECT_FALSE(json::Parse("nan").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("01").ok() && json::Parse("01")->is_number() &&
               json::Parse("01")->AsNumber() != 1.0)
      << "leading zeros must not silently misparse";
  EXPECT_FALSE(json::Parse("1e999").ok()) << "overflow to inf rejected";
}

TEST(Json, RoundTripsTheMetricsReport) {
  obs::Recorder recorder;
  recorder.Install();
  obs::Count("meta.rpc.calls", 7);
  obs::SetGauge("dram.bytes", 123.0);
  recorder.Uninstall();
  auto doc = json::Parse(recorder.MetricsJson(2.5));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringOr("schema", ""), "univistor.metrics.v3");
  EXPECT_DOUBLE_EQ(doc->NumberOr("sim_elapsed_seconds", 0), 2.5);
}

// --- run-report schema validation (satellite 3) -------------------------

/// Traced micro-write run with attribution, serialized exactly the way
/// uvsim --metrics --attribution writes it.
std::string RunAndSerialize(obs::Recorder& recorder, std::uint64_t seed,
                            double degrade_factor = 0.0) {
  recorder.Install();
  std::string metrics_json;
  {
    workload::ScenarioOptions options;
    options.procs = 64;
    options.policy = sched::PlacementPolicy::kInterferenceAware;
    options.cluster_params = hw::CoriPreset(64);
    options.cluster_params.seed = seed;
    workload::Scenario scenario(options);
    if (degrade_factor > 0) {
      hw::DeviceArray* pfs = &scenario.cluster().pfs();
      scenario.engine().Schedule(0.01, [pfs, degrade_factor] {
        pfs->Degrade(0, degrade_factor);
      });
    }
    univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                                univistor::Config{});
    univistor::UniviStorDriver driver(system);
    auto app = scenario.runtime().LaunchProgram("app", 64);
    workload::RunHdfMicro(scenario, app, driver,
                          workload::MicroParams{.bytes_per_proc = 64_MiB,
                                                .file_name = "r.h5"});
    scenario.cluster().pfs().FlushDegradeSpans();
    scenario.cluster().burst_buffer().FlushDegradeSpans();
    const obs::Report report = workload::AnalyzeRun(recorder, scenario, &system);
    metrics_json =
        recorder.MetricsJson(scenario.engine().Now(), obs::AttributionJson(report));
  }
  recorder.Uninstall();
  return metrics_json;
}

void ExpectAllNumbersFinite(const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kNumber:
      EXPECT_TRUE(std::isfinite(v.AsNumber()));
      break;
    case json::Value::Kind::kArray:
      for (const auto& item : v.AsArray()) ExpectAllNumbersFinite(item);
      break;
    case json::Value::Kind::kObject:
      for (const auto& [key, value] : v.AsObject()) ExpectAllNumbersFinite(value);
      break;
    default: break;
  }
}

TEST(RunReport, SchemaValidatesOnARealRun) {
  obs::Recorder recorder;
  const std::string serialized = RunAndSerialize(recorder, 42);

  auto doc = json::Parse(serialized);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ExpectAllNumbersFinite(*doc);

  auto report = obs::LoadRunReport(*doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->schema, "univistor.metrics.v3");
  EXPECT_GT(report->sim_elapsed, 0.0);
  EXPECT_GT(report->span_count, 0.0);
  EXPECT_GE(report->span_limit, report->span_count);
  EXPECT_EQ(report->spans_dropped, 0.0);

  // Required counter keys a traced UniviStor write run always produces.
  for (const char* key : {"meta.rpc.calls", "meta.rpc.ops", "flush.count", "flush.bytes"})
    EXPECT_EQ(report->counters.count(key), 1u) << key;

  // Attribution present, schema-checked, and categories sum to the rank
  // windows within 0.1% (the acceptance tolerance).
  ASSERT_TRUE(report->has_attribution);
  EXPECT_EQ(report->attribution_schema, "univistor.attribution.v1");
  ASSERT_FALSE(report->jobs.empty());
  for (const obs::LoadedJob& job : report->jobs) {
    if (job.rank_window_seconds <= 0) continue;
    EXPECT_NEAR(job.attributed(), job.rank_window_seconds,
                1e-3 * job.rank_window_seconds)
        << job.name;
  }
  EXPECT_FALSE(report->critical_job.empty());
  EXPECT_GT(report->critical_segments, 0u);
  EXPECT_FALSE(report->devices.empty());
}

TEST(RunReport, LoaderRejectsWrongOrBrokenSchemas) {
  auto v1 = json::Parse(R"({"schema":"univistor.metrics.v1","sim_elapsed_seconds":1})");
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(obs::LoadRunReport(*v1).ok()) << "v1 reports are not silently accepted";

  auto missing = json::Parse(R"({"schema":"univistor.metrics.v2"})");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(obs::LoadRunReport(*missing).ok()) << "sim_elapsed_seconds required";

  auto bad_attr = json::Parse(
      R"({"schema":"univistor.metrics.v2","sim_elapsed_seconds":1,
          "counters":{},"gauges":{},"attribution":{"schema":"bogus.v9"}})");
  ASSERT_TRUE(bad_attr.ok());
  EXPECT_FALSE(obs::LoadRunReport(*bad_attr).ok());
}

TEST(RunReport, LoaderStillAcceptsV2Reports) {
  // Goldens written before the telemetry/slo blocks existed must keep
  // loading (ci/golden_report.json is one).
  auto v2 = json::Parse(
      R"({"schema":"univistor.metrics.v2","sim_elapsed_seconds":1.5,
          "span_count":10,"counters":{"flush.count":3},"gauges":{}})");
  ASSERT_TRUE(v2.ok());
  auto report = obs::LoadRunReport(*v2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->schema, "univistor.metrics.v2");
  EXPECT_FALSE(report->has_telemetry);
  EXPECT_FALSE(report->has_slo);
  EXPECT_EQ(report->spans_pruned, 0.0);
}

/// Minimal v3 report with telemetry + slo blocks; `verdict` parameterizes
/// the cluster stretch SLO so diffs can flip it.
std::string V3SloDoc(const char* verdict, double consumed) {
  std::string slo = R"({"name":"stretch","label":"stretch<=4","threshold":4,
      "budget":0.25,"fast_window":1,"slow_window":10,"alert_burn":2,
      "total":12,"bad":2,"budget_consumed":)";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", consumed);
  slo += buf;
  slo += R"(,"peak_fast_burn":1.2,"peak_slow_burn":0.8,"alerts":0,"verdict":")";
  slo += verdict;
  slo += "\"}";
  return std::string(R"({"schema":"univistor.metrics.v3","sim_elapsed_seconds":2,
      "span_count":5,"spans_pruned":7,"counters":{},"gauges":{},
      "telemetry":{"schema":"univistor.telemetry.v1","relative_error":0.02,
        "tenants":{"univistor/micro":{"stretch":{"count":12,"p50":3.1,"p99":4.0},
                                      "wait":{"count":12,"p50":0.05,"p99":0.2}}},
        "cluster":{"stretch":{"count":12,"p50":3.2,"p99":4.1},
                   "wait":{"count":12,"p50":0.05,"p99":0.2}}},
      "slo":{"schema":"univistor.slo.v1","cluster":[)") +
         slo + R"(],"tenants":{"univistor/micro":[)" + slo + "]}}}";
}

TEST(RunReport, LoadsV3TelemetryAndSloBlocks) {
  auto doc = json::Parse(V3SloDoc("ok", 0.3));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto report = obs::LoadRunReport(*doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->spans_pruned, 7.0);
  ASSERT_TRUE(report->has_telemetry);
  EXPECT_EQ(report->telemetry_schema, "univistor.telemetry.v1");
  EXPECT_DOUBLE_EQ(report->stretch_p50, 3.2);
  EXPECT_DOUBLE_EQ(report->stretch_p99, 4.1);
  ASSERT_TRUE(report->has_slo);
  EXPECT_EQ(report->slo_schema, "univistor.slo.v1");
  ASSERT_EQ(report->slos.size(), 2u);
  EXPECT_EQ(report->slos[0].tenant, "cluster");
  EXPECT_EQ(report->slos[0].label, "stretch<=4");
  EXPECT_EQ(report->slos[0].verdict, "ok");
  EXPECT_DOUBLE_EQ(report->slos[0].budget_consumed, 0.3);
  EXPECT_EQ(report->slos[1].tenant, "univistor/micro");

  auto bad_verdict = json::Parse(V3SloDoc("sideways", 0.3));
  ASSERT_TRUE(bad_verdict.ok());
  EXPECT_FALSE(obs::LoadRunReport(*bad_verdict).ok()) << "unknown verdicts rejected";
}

TEST(RunReportDiff, SloVerdictFlipIsAlwaysAShift) {
  auto ok = obs::LoadRunReport(*json::Parse(V3SloDoc("ok", 0.3)));
  auto breached = obs::LoadRunReport(*json::Parse(V3SloDoc("breached", 1.4)));
  ASSERT_TRUE(ok.ok() && breached.ok());
  EXPECT_TRUE(obs::DiffReports(*ok, *ok, obs::DiffOptions{}).empty());
  const auto shifts = obs::DiffReports(*ok, *breached, obs::DiffOptions{});
  ASSERT_FALSE(shifts.empty()) << "verdict flips gate regardless of tolerance";
  bool named = false;
  for (const std::string& s : shifts)
    if (s.find("stretch<=4") != std::string::npos && s.find("breached") != std::string::npos)
      named = true;
  EXPECT_TRUE(named) << "the shift names the flipped SLO";
}

// --- diff gate (tentpole part 4 / satellite 5) --------------------------

TEST(RunReportDiff, SameSeedRerunIsClean) {
  obs::Recorder a, b;
  const std::string ja = RunAndSerialize(a, 42);
  const std::string jb = RunAndSerialize(b, 42);
  EXPECT_EQ(ja, jb) << "same seed, same bytes";
  auto ra = obs::LoadRunReport(*json::Parse(ja));
  auto rb = obs::LoadRunReport(*json::Parse(jb));
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_TRUE(obs::DiffReports(*ra, *rb, obs::DiffOptions{}).empty());
}

TEST(RunReportDiff, SlowedOstRunIsFlagged) {
  obs::Recorder a, b;
  auto ra = obs::LoadRunReport(*json::Parse(RunAndSerialize(a, 42)));
  auto rb = obs::LoadRunReport(*json::Parse(RunAndSerialize(b, 42, /*degrade_factor=*/0.02)));
  ASSERT_TRUE(ra.ok() && rb.ok());
  const auto shifts = obs::DiffReports(*ra, *rb, obs::DiffOptions{});
  EXPECT_FALSE(shifts.empty()) << "a 50x slower OST must trip the gate";
  bool device_blamed = false;
  for (const std::string& shift : shifts)
    if (shift.find("ost0") != std::string::npos) device_blamed = true;
  EXPECT_TRUE(device_blamed) << "the diff names the degraded device";
}

}  // namespace
}  // namespace uvs
