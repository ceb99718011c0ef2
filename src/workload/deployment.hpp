// One way to assemble a deployment: the storage system under test over a
// Scenario's machine, and the wiring of an armed fault plan into it. uvsim,
// the fuzzer's runner, the figure benches and cluster::ClusterSim all build
// their systems here, so a bench, a fuzz seed and a cluster tenant of the
// same shape run the same code. A finished run's attribution report, whose
// device rows read the deployment's own counters, is built here too.
#pragma once

#include <cstdint>
#include <memory>

#include "src/baselines/data_elevator.hpp"
#include "src/obs/attribution.hpp"
#include "src/univistor/config.hpp"
#include "src/univistor/system.hpp"
#include "src/vmpi/file.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::fault {
class Injector;
}

namespace uvs::workload {

enum class SystemKind : std::uint8_t { kUniviStor = 0, kLustre, kDataElevator };

/// "univistor", "lustre" or "data_elevator": the name fuzz spec strings,
/// cluster tenant keys and job-trace JSON use.
const char* SystemKindName(SystemKind kind);

/// Pacing between stripes of a background scrub pass (sim seconds).
inline constexpr Time kScrubStripeInterval = 0.0001;

/// The system under test behind one ADIO driver. `univistor` is set only
/// for kUniviStor and `data_elevator` only for kDataElevator; Lustre is a
/// driver alone. `driver` is declared last so it is destroyed before the
/// system it forwards to.
struct SystemUnderTest {
  std::unique_ptr<univistor::UniviStor> univistor;
  std::unique_ptr<baselines::DataElevator> data_elevator;
  std::unique_ptr<vmpi::AdioDriver> driver;
};

/// Builds `kind` over the scenario's runtime and PFS. `config` applies to
/// UniviStor only; the baselines take no configuration.
SystemUnderTest BuildSystem(Scenario& scenario, SystemKind kind,
                            const univistor::Config& config);

/// Routes an armed fault plan into the deployment: hardware windows degrade
/// the scenario's cluster; with a UniviStor (nullable), node crashes go to
/// FailNode and its flushes honour transfer-timeout windows; `ostfail`
/// fails the OST on the shared PFS (and, with `recover`, spawns its
/// rebuild), `latent` flags a latent shard error and `scrub@T` spawns a
/// scrub pass paced at `scrub_interval`.
void WireFaults(fault::Injector& injector, Scenario& scenario, univistor::UniviStor* univistor,
                bool recover, Time scrub_interval);

/// Runs one full background scrub pass after the workload drained.
void RunFinalScrub(Scenario& scenario, Time interval);

/// The attribution report of a finished run (`uvsim --attribution`):
/// obs::Analyze over every program the runtime launched, plus the device
/// USE rows, read from the devices' own counters so no span cap changes
/// them. Rows come in order md, bb, ost, for every metadata server of
/// `univistor` (nullable) that served RPCs and every BB node and OST that
/// served bytes or was degraded.
obs::Report AnalyzeRun(const obs::Recorder& recorder, Scenario& scenario,
                       const univistor::UniviStor* univistor);

}  // namespace uvs::workload
