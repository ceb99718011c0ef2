#include "bench/bench_common.hpp"

#include <cstdio>
#include <cstdlib>

#include "src/common/log.hpp"
#include "src/common/parse.hpp"
#include "src/hw/probes.hpp"

namespace uvs::bench {

namespace {
void InitBenchEnvOnce() {
  static const bool done = [] {
    InitLogLevelFromEnv();
    return true;
  }();
  (void)done;
}

int NextObsRun() {
  static int run = 0;
  return run++;
}
}  // namespace

void ObsHook::Attach(workload::Scenario& scenario, univistor::UniviStor* system) {
  const char* dir = std::getenv("UVS_OBS_DIR");
  if (dir == nullptr || obs::Enabled()) return;
  recorder_ = std::make_unique<obs::Recorder>();
  recorder_->Install();
  const char* env = std::getenv("UVS_SAMPLE_INTERVAL");
  const double interval = env ? FlagNumber("bench", "UVS_SAMPLE_INTERVAL", env, 0.0) : 1.0;
  engine_ = &scenario.engine();
  sampler_ = std::make_unique<obs::Sampler>(*engine_, *recorder_, interval);
  hw::RegisterClusterGauges(*sampler_, scenario.cluster());
  if (system != nullptr) system->RegisterGauges(*sampler_);
  char run[32];
  std::snprintf(run, sizeof run, "run-%03d", NextObsRun());
  trace_path_ = std::string(dir) + "/" + run + ".trace.json";
  metrics_path_ = std::string(dir) + "/" + run + ".metrics.json";
  Kick();
}

void ObsHook::Kick() {
  if (sampler_ != nullptr) sampler_->Kick();
}

ObsHook::~ObsHook() {
  if (recorder_ == nullptr) return;
  if (Status s = recorder_->WriteChromeTrace(trace_path_); !s.ok())
    UVS_WARN("bench: writing " << trace_path_ << ": " << s.ToString());
  if (Status s = recorder_->WriteMetricsJson(metrics_path_, engine_->Now()); !s.ok())
    UVS_WARN("bench: writing " << metrics_path_ << ": " << s.ToString());
  recorder_->Uninstall();
}

std::vector<int> ScaleSweep() {
  const char* env = std::getenv("UVS_MAX_PROCS");
  const int max_procs =
      env ? FlagNumber("bench", "UVS_MAX_PROCS", env, 64, workload::kMaxProcs) : 8192;
  std::vector<int> scales;
  for (int p = 64; p <= max_procs; p *= 2) scales.push_back(p);
  return scales;
}

double Rate(Bytes bytes, Time seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
}

void Emit(const std::string& title, const Table& table) {
  std::printf("\n== %s ==\n%s", title.c_str(), table.ToString().c_str());
  if (std::getenv("UVS_CSV") != nullptr) std::printf("%s", table.ToCsv().c_str());
  std::fflush(stdout);
}

namespace {
Setup Make(workload::SystemKind kind, int procs, const univistor::Config& config,
           sched::PlacementPolicy policy, bool workflow, int client_programs) {
  InitBenchEnvOnce();
  Setup setup;
  setup.scenario = std::make_unique<workload::Scenario>(workload::ScenarioOptions{
      .procs = procs, .policy = policy, .workflow_enabled = workflow});
  setup.system = workload::BuildSystem(*setup.scenario, kind, config);
  setup.app = setup.scenario->runtime().LaunchProgram("app", procs / client_programs);
  setup.obs.Attach(*setup.scenario, setup.system.univistor.get());
  return setup;
}
}  // namespace

Setup MakeUniviStor(int procs, const univistor::Config& config, bool cfs, bool workflow,
                    int client_programs) {
  return Make(workload::SystemKind::kUniviStor, procs, config,
              cfs ? sched::PlacementPolicy::kCfs : sched::PlacementPolicy::kInterferenceAware,
              workflow, client_programs);
}

Setup MakeDataElevator(int procs, int client_programs) {
  return Make(workload::SystemKind::kDataElevator, procs, {}, sched::PlacementPolicy::kCfs,
              false, client_programs);
}

Setup MakeLustre(int procs, int client_programs) {
  return Make(workload::SystemKind::kLustre, procs, {}, sched::PlacementPolicy::kCfs, false,
              client_programs);
}

}  // namespace uvs::bench
