#include "src/testkit/runner.hpp"

#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/job.hpp"
#include "src/cluster/simulation.hpp"
#include "src/common/rng.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/plan.hpp"
#include "src/hw/params.hpp"
#include "src/obs/recorder.hpp"
#include "src/storage/pfs.hpp"
#include "src/univistor/config.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/bdcats.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::testkit {

namespace {

using workload::SystemKind;
using workload::SystemUnderTest;
using workload::WorkloadKind;

hw::ClusterParams BuildClusterParams(const ScenarioSpec& spec) {
  hw::ClusterParams params = hw::CoriPreset(spec.procs, spec.procs_per_node);
  // Small cores-per-node so client ranks and the per-node UniviStor servers
  // genuinely contend; small caches so the DHP cascade actually spills.
  params.node.cores = 8;
  params.node.dram_cache_capacity = spec.dram_cache_capacity;
  params.node.has_local_ssd = spec.has_ssd;
  params.node.ssd_capacity = spec.ssd_capacity;
  params.bb.bb_nodes = spec.bb_nodes;
  params.bb.capacity_per_bb_node = spec.bb_capacity_per_node;
  params.pfs.osts = spec.osts;
  params.seed = spec.seed;
  return params;
}

univistor::Config BuildConfig(const ScenarioSpec& spec) {
  univistor::Config config;
  config.collective_open_close = spec.coc;
  config.adaptive_striping = spec.adpt;
  config.location_aware_reads = spec.la;
  config.interference_aware_flush = spec.ia;
  config.flush_on_close = spec.flush_on_close;
  config.first_cache_layer = static_cast<hw::Layer>(spec.first_layer);
  config.chunk_size = spec.chunk_size;
  config.metadata_range_size = spec.metadata_range_size;
  config.replicate_volatile = spec.replicate_volatile;
  config.promote_hot_reads = spec.promote_hot_reads;
  config.read_cache_capacity_per_node = 16_MiB;
  config.recovery.enabled = spec.recovery;
  if (spec.ec_k > 0) {
    config.ec.enabled = true;
    config.ec.data_shards = spec.ec_k;
    config.ec.parity_shards = spec.ec_m;
  }
  return config;
}

/// Arms the spec's fail=plan fault plan; nullptr otherwise, or when the plan
/// does not parse (reported as a violation).
std::unique_ptr<fault::Injector> ArmSpecPlan(const ScenarioSpec& spec,
                                             workload::Scenario& scenario,
                                             univistor::UniviStor* univistor,
                                             RunOutcome& outcome) {
  if (spec.failure != FailureMode::kPlan) return nullptr;
  auto plan = fault::ParsePlan(spec.fault_plan);
  if (!plan.ok()) {
    outcome.report.Add("fault-plan", plan.status().message());
    return nullptr;
  }
  return workload::ArmFaults(scenario, *plan, univistor, spec.recovery,
                             workload::kScrubStripeInterval);
}

/// Fails the spec'd node at the spec'd point and records the exact
/// expected data loss for the read phase that follows.
void InjectFailure(const ScenarioSpec& spec, workload::Scenario& scenario,
                   univistor::UniviStor& system, RunOutcome& outcome) {
  if (spec.failure == FailureMode::kDuringFlush) {
    // Start a fresh flush of every file and fail the node while in flight.
    for (int f = 0; f < system.file_count(); ++f)
      system.TriggerFlush(static_cast<storage::FileId>(f));
    scenario.engine().RunUntil(scenario.engine().Now() + 1e-4);
  }
  system.FailNode(spec.failed_node);
  scenario.engine().Run();  // drain in-flight flushes and replication
  outcome.expected_lost_bytes = ExpectedLostBytes(system, scenario.runtime());
}

void CollectFileSizes(const std::vector<std::string>& names, SystemUnderTest& sut,
                      workload::Scenario& scenario, RunOutcome& outcome) {
  for (const auto& name : names) {
    if (sut.univistor != nullptr) {
      outcome.file_sizes[name] = sut.univistor->LogicalSize(sut.univistor->OpenOrCreate(name));
    } else {
      const auto handle = scenario.pfs().Lookup(name);
      if (handle.ok()) outcome.file_sizes[name] = scenario.pfs().FileSize(*handle);
    }
  }
}

/// Replays the workload through the Lustre baseline and compares sizes.
void RunDifferential(const ScenarioSpec& spec, RunOutcome& outcome) {
  ScenarioSpec baseline_spec = spec;
  baseline_spec.system = SystemKind::kLustre;
  baseline_spec.failure = FailureMode::kNone;
  baseline_spec.ec_k = 0;  // the baseline has no EC path
  baseline_spec.ec_m = 0;
  baseline_spec.scrub = false;
  RunOptions options;
  options.differential = false;
  const RunOutcome baseline = RunScenario(baseline_spec, options);
  for (const auto& v : baseline.report.violations)
    outcome.report.Add("differential-baseline:" + v.invariant, v.detail);
  for (const auto& [name, size] : outcome.file_sizes) {
    const auto it = baseline.file_sizes.find(name);
    if (it == baseline.file_sizes.end()) {
      outcome.report.Add("differential",
                         "file '" + name + "' exists under UniviStor but not under Lustre");
    } else if (it->second != size) {
      outcome.report.Add("differential", "file '" + name + "': UniviStor exposes " +
                                             std::to_string(size) + " bytes, Lustre " +
                                             std::to_string(it->second));
    }
  }
  if (baseline.file_sizes.size() != outcome.file_sizes.size()) {
    outcome.report.Add("differential",
                       "UniviStor run produced " + std::to_string(outcome.file_sizes.size()) +
                           " files, Lustre run " + std::to_string(baseline.file_sizes.size()));
  }
}

/// Derives the multi-tenant job mix for a jobs>1 spec: every job has the
/// spec's workload shape with procs/jobs client ranks, and arrivals are
/// Poisson with mean `spec.arrival` (all at t=0 when it is zero). Purely
/// seed-deterministic.
std::vector<cluster::JobSpec> BuildJobMix(const ScenarioSpec& spec) {
  Rng rng(spec.seed ^ 0x5c1ed01eull);
  std::vector<cluster::JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(spec.jobs));
  Time clock = 0;
  for (int j = 0; j < spec.jobs; ++j) {
    cluster::JobSpec job;
    job.id = j;
    job.arrival = clock;
    if (spec.arrival > 0) clock += -spec.arrival * std::log(1.0 - rng.NextDouble());
    job.kind = spec.workload == WorkloadKind::kVpic ? cluster::JobKind::kVpic
               : spec.workload == WorkloadKind::kMicroReadBack
                   ? cluster::JobKind::kMicroReadBack
                   : cluster::JobKind::kMicroWrite;
    job.system = SystemKind::kUniviStor;  // parse rejects baselines for jobs>1
    job.procs = std::max(1, spec.procs / spec.jobs);
    job.bytes_per_rank = spec.bytes_per_rank;
    job.steps = spec.workload == WorkloadKind::kVpic ? spec.steps : 1;
    job.compute_time = spec.compute_time;
    job.first_layer = spec.first_layer;
    job.ec = spec.ec_k > 0;  // redundant with base_config.ec, kept explicit
    jobs.push_back(job);
  }
  return jobs;
}

/// The jobs>1 path: one shared machine, one ClusterSim, per-job UniviStor
/// instances contending through it. The starvation horizon, which bounds
/// sampled mixes only, rides on top of the cluster battery.
RunOutcome RunClusterScenario(const ScenarioSpec& spec) {
  RunOutcome outcome;
  outcome.spec = spec;
  try {
    workload::ScenarioOptions scenario_options{
        .procs = spec.procs,
        .policy = spec.ia ? sched::PlacementPolicy::kInterferenceAware
                          : sched::PlacementPolicy::kCfs,
        .workflow_enabled = false,
        .cluster_params = BuildClusterParams(spec)};
    workload::Scenario scenario(scenario_options);

    cluster::ClusterOptions cluster_options;
    cluster_options.policy = static_cast<cluster::Policy>(spec.csched);
    cluster_options.base_config = BuildConfig(spec);
    cluster_options.procs_per_node = spec.procs_per_node;
    cluster::ClusterSim sim(scenario, BuildJobMix(spec), cluster_options);

    const auto injector = ArmSpecPlan(spec, scenario, nullptr, outcome);
    if (!outcome.ok()) return outcome;
    if (injector != nullptr) sim.AttachInjector(*injector);

    sim.Run();
    if (spec.ec_k > 0 && spec.scrub)
      workload::RunFinalScrub(scenario, workload::kScrubStripeInterval);
    outcome.sim_time = scenario.engine().Now();
    for (int j = 0; j < sim.job_count(); ++j) {
      if (const univistor::UniviStor* sys = sim.system(j)) {
        outcome.lost_bytes += sys->lost_bytes();
        for (int f = 0; f < sys->file_count(); ++f) {
          const auto fid = static_cast<storage::FileId>(f);
          outcome.file_sizes[sys->FileName(fid)] = sys->LogicalSize(fid);
        }
      }
    }

    outcome.expected_lost_bytes =
        CheckClusterRun(scenario, sim, injector != nullptr, outcome.report);
    if (outcome.sim_time > sim.StarvationHorizon()) {
      outcome.report.Add("cluster-starvation",
                         "mix drained at t=" + std::to_string(outcome.sim_time) +
                             ", past the bounded horizon " +
                             std::to_string(sim.StarvationHorizon()));
    }
  } catch (const std::exception& e) {
    outcome.report.Add("exception", e.what());
  } catch (...) {
    outcome.report.Add("exception", "non-standard exception escaped the run");
  }
  return outcome;
}

RunOutcome RunSingleScenario(const ScenarioSpec& spec, const RunOptions& options) {
  RunOutcome outcome;
  outcome.spec = spec;
  try {
    workload::ScenarioOptions scenario_options{
        .procs = spec.procs,
        .policy = spec.ia ? sched::PlacementPolicy::kInterferenceAware
                          : sched::PlacementPolicy::kCfs,
        .workflow_enabled = spec.workload == WorkloadKind::kWorkflow,
        .cluster_params = BuildClusterParams(spec)};
    workload::Scenario scenario(scenario_options);
    SystemUnderTest sut = workload::BuildSystem(scenario, spec.system, BuildConfig(spec));
    univistor::UniviStor* const system = sut.univistor.get();

    const auto injector = ArmSpecPlan(spec, scenario, system, outcome);
    if (!outcome.ok()) return outcome;

    // Point failures land at a drained milestone: between micro_read's
    // phases, or after VPIC's last step; plan crashes are the injector's.
    const bool inject = (spec.failure == FailureMode::kAfterWrites ||
                         spec.failure == FailureMode::kDuringFlush) &&
                        system != nullptr;
    const auto fail = [&] {
      if (inject) InjectFailure(spec, scenario, *system, outcome);
    };
    const workload::WorkloadParams params{.kind = spec.workload,
                                          .procs = spec.procs,
                                          .bytes_per_rank = spec.bytes_per_rank,
                                          .steps = spec.steps,
                                          .vpic_vars = 2,
                                          .compute_time = spec.compute_time};
    const workload::WorkloadResult result =
        workload::DriveWorkload(scenario, sut, params, fail);
    if (spec.workload == WorkloadKind::kVpic) {
      fail();
      if (inject || (injector != nullptr && system != nullptr)) {
        // Read everything back through BD-CATS to exercise the loss path.
        const auto reader = scenario.runtime().LaunchProgram("bdcats", spec.procs);
        workload::RunBdcats(
            scenario, reader, *sut.driver,
            workload::BdcatsParams{.producer = params.Vpic(), .producer_ranks = spec.procs});
      }
    }
    scenario.engine().Run();  // final drain (asynchronous flushes)
    if (spec.ec_k > 0 && spec.scrub)
      workload::RunFinalScrub(scenario, workload::kScrubStripeInterval);
    outcome.sim_time = scenario.engine().Now();
    CollectFileSizes(result.files, sut, scenario, outcome);
    if (system != nullptr) outcome.lost_bytes = system->lost_bytes();

    outcome.expected_lost_bytes = CheckSingleRun(scenario, system, injector != nullptr,
                                                 outcome.expected_lost_bytes, outcome.report);
    if (options.differential && spec.system == SystemKind::kUniviStor &&
        spec.failure == FailureMode::kNone) {
      RunDifferential(spec, outcome);
    }
  } catch (const std::exception& e) {
    outcome.report.Add("exception", e.what());
  } catch (...) {
    outcome.report.Add("exception", "non-standard exception escaped the run");
  }
  return outcome;
}

}  // namespace

RunOutcome RunScenario(const ScenarioSpec& spec, const RunOptions& options) {
  obs::Recorder* recorder = obs::Recorder::Current();
  const std::uint64_t dropped_before = recorder != nullptr ? recorder->spans_dropped() : 0;
  RunOutcome outcome = spec.jobs > 1 ? RunClusterScenario(spec)
                                     : RunSingleScenario(spec, options);
  if (recorder != nullptr)
    outcome.spans_dropped = recorder->spans_dropped() - dropped_before;
  // A failing scenario freezes the flight-recorder ring to disk (no-op
  // without an installed recorder or dump path).
  if (!outcome.ok())
    if (obs::FlightRecorder* flight = obs::FlightRecorder::Current()) {
      for (const auto& v : outcome.report.violations)
        flight->Note(outcome.sim_time, "invariant", v.invariant, 0, v.detail);
      const Status dump = flight->Dump("invariant-failure");
      if (!dump.ok()) outcome.report.Add("flight-dump", dump.message());
    }
  return outcome;
}

}  // namespace uvs::testkit
