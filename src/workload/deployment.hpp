// One run path for every front end: the storage system under test over a
// Scenario's machine, the fault plan armed into it, and the workload driven
// over it. uvsim, the fuzzer's runner, the figure benches, the examples and
// cluster::ClusterSim all build and drive their runs here, so runs of the
// same shape run the same code. A finished run's attribution report, whose
// device rows read the deployment's own counters, is built here too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/data_elevator.hpp"
#include "src/obs/attribution.hpp"
#include "src/univistor/config.hpp"
#include "src/univistor/system.hpp"
#include "src/vmpi/file.hpp"
#include "src/workload/bdcats.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

namespace uvs::fault {
class Injector;
struct Plan;
}  // namespace uvs::fault

namespace uvs::workload {

enum class SystemKind : std::uint8_t { kUniviStor = 0, kLustre, kDataElevator };

/// "univistor", "lustre" or "data_elevator": the name fuzz spec strings,
/// cluster tenant keys and job-trace JSON use.
const char* SystemKindName(SystemKind kind);

enum class WorkloadKind : std::uint8_t { kMicro = 0, kMicroReadBack, kVpic, kWorkflow };

/// "micro", "micro_read", "vpic" or "workflow", as fuzz spec strings name it.
const char* WorkloadKindName(WorkloadKind kind);

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

/// Creates an injector for `plan`, routes it into the deployment and arms it
/// (before the workload, so its events interleave with the I/O). Hardware
/// windows degrade the scenario's cluster; with a UniviStor (nullable), node
/// crashes go to FailNode and its flushes honour transfer-timeout windows;
/// `ostfail` fails the OST on the shared PFS (and, with `recover`, spawns its
/// rebuild), `latent` flags a latent shard error and `scrub@T` spawns a
/// scrub pass paced at `scrub_interval`. A cluster run attaches its
/// ClusterSim to the returned injector to route crashes per tenant.
std::unique_ptr<fault::Injector> ArmFaults(Scenario& scenario, const fault::Plan& plan,
                                           univistor::UniviStor* univistor, bool recover,
                                           Time scrub_interval);

/// Runs one full background scrub pass after the workload drained.
void RunFinalScrub(Scenario& scenario, Time interval);

/// One run's client workload, in the values every front end sets.
struct WorkloadParams {
  WorkloadKind kind = WorkloadKind::kMicro;
  int procs = 1;             // a workflow gives procs / 2 to VPIC, the rest to BD-CATS
  Bytes bytes_per_rank = 0;  // per step for vpic and workflow
  int steps = 1;             // vpic and workflow
  int vpic_vars = 8;         // each holds bytes_per_rank / vpic_vars
  Time compute_time = 0;     // VPIC's sleep between checkpoints

  /// The VPIC-IO layout of a vpic or workflow run (the producer a BD-CATS
  /// read-back of its files takes).
  VpicParams Vpic() const;
};

/// A VPIC-IO producer coupled with a BD-CATS-IO consumer.
struct WorkflowResult {
  VpicResult producer;
  BdcatsResult consumer;
  Time elapsed = 0;  // VPIC's start to BD-CATS's done
};

/// What a driven workload measured; its kind decides which part is set.
struct WorkloadResult {
  IoTiming micro;           // micro, and micro_read's read phase
  VpicResult vpic;          // vpic
  WorkflowResult workflow;  // workflow
  std::vector<std::string> files;  // every file the workload wrote
};

/// Launches the client programs ("app"; "vpic"; "vpic" and "bdcats") and
/// runs `params` over `sut` until the engine drains. A workflow overlaps
/// its programs only on UniviStor, whose workflow manager keeps the reader
/// off half-written files; the baselines chain them. `between_phases`
/// (optional) runs between micro_read's write and read phases.
WorkloadResult DriveWorkload(Scenario& scenario, const SystemUnderTest& sut,
                             const WorkloadParams& params,
                             const std::function<void()>& between_phases = {});

/// The VPIC-IO -> BD-CATS-IO coupling (Fig. 9): `reader` reads every step
/// file `writer` writes. With `overlap` both start together and the
/// workflow manager orders each step's read after its write; otherwise
/// BD-CATS starts once VPIC is done. Runs the engine until it drains.
WorkflowResult RunWorkflow(Scenario& scenario, vmpi::AdioDriver& driver, vmpi::ProgramId writer,
                           vmpi::ProgramId reader, const VpicParams& params, bool overlap);

/// The attribution report of a finished run (`uvsim --attribution`):
/// obs::Analyze over every program the runtime launched, plus the device
/// USE rows, read from the devices' own counters so no span cap changes
/// them. Rows come in order md, bb, ost, for every metadata server of
/// `univistor` (nullable) that served RPCs and every BB node and OST that
/// served bytes or was degraded.
obs::Report AnalyzeRun(const obs::Recorder& recorder, Scenario& scenario,
                       const univistor::UniviStor* univistor);

}  // namespace uvs::workload
