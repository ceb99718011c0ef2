// Shared scaffolding for the figure-reproduction benches: builds a fresh
// simulated machine + storage system per configuration and provides the
// process-count sweep used throughout the paper's evaluation (64 to 8192
// ranks in 2x increments).
//
// Environment knobs (a malformed or out-of-range number exits 2 with a
// message naming the variable):
//   UVS_MAX_PROCS        — cap the sweep, an integer in [64, 65536]
//                          (default 8192; set e.g. 1024 for a quick pass).
//   UVS_CSV              — also print tables as CSV.
//   UVS_LOG_LEVEL        — logger threshold (trace..off).
//   UVS_OBS_DIR          — record a Chrome trace + metrics report per
//                          machine setup into this directory (see
//                          docs/OBSERVABILITY.md).
//   UVS_SAMPLE_INTERVAL  — gauge sampling period in simulated seconds, a
//                          finite number >= 0 (default 1; 0 disables
//                          sampling; used with UVS_OBS_DIR).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/table.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sampler.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::bench {

/// Env-gated observability for the benches. Inactive (one getenv) unless
/// UVS_OBS_DIR is set and no other recorder is installed; when active it
/// records the setup's run and writes <dir>/run-NNN.trace.json plus
/// run-NNN.metrics.json as the setup is destroyed.
class ObsHook {
 public:
  ObsHook() = default;
  ObsHook(ObsHook&&) = default;
  ObsHook& operator=(ObsHook&&) = default;
  ~ObsHook();

  /// Installs the recorder and registers cluster (and, when `system` is
  /// non-null, UniviStor layer-occupancy) gauges.
  void Attach(workload::Scenario& scenario, univistor::UniviStor* system);
  /// Re-arms the periodic sampler; call before re-running the engine.
  void Kick();

 private:
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<obs::Sampler> sampler_;
  sim::Engine* engine_ = nullptr;
  std::string trace_path_;
  std::string metrics_path_;
};

/// 64, 128, ..., UVS_MAX_PROCS (default 8192).
std::vector<int> ScaleSweep();

/// GB (decimal) per second, the unit the paper's figures use.
double Rate(Bytes bytes, Time seconds);

/// Prints a figure header + the table (and CSV when UVS_CSV is set).
void Emit(const std::string& title, const Table& table);

/// One deployment on a fresh simulated machine: the system under test and
/// its launched client program.
struct Setup {
  std::unique_ptr<workload::Scenario> scenario;
  workload::SystemUnderTest system;
  vmpi::ProgramId app = -1;
  ObsHook obs;  // last member: exports its files while the engine is alive
};

/// Builds the machine with the paper's defaults (IA placement unless the
/// config disables it — pass `cfs` to force CFS) and launches
/// `procs / client_programs` client ranks.
Setup MakeUniviStor(int procs, const univistor::Config& config, bool cfs = false,
                    bool workflow = false, int client_programs = 1);

/// Data Elevator / Lustre deployments (always CFS, as deployed in §III).
Setup MakeDataElevator(int procs, int client_programs = 1);
Setup MakeLustre(int procs, int client_programs = 1);

}  // namespace uvs::bench
