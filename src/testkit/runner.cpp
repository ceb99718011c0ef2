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
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

namespace uvs::testkit {

namespace {

using workload::SystemKind;
using workload::SystemUnderTest;

constexpr const char* kMicroFileName = "fuzz.h5";
constexpr const char* kVpicPrefix = "fuzz_vpic";

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

/// Fails the spec'd node at the spec'd point and records the exact
/// expected data loss for the read phase that follows.
void InjectFailure(const ScenarioSpec& spec, workload::Scenario& scenario,
                   univistor::UniviStor& system, const std::vector<std::string>& names,
                   RunOutcome& outcome) {
  if (spec.failure == FailureMode::kDuringFlush) {
    // Start a fresh flush and fail the node while it is in flight.
    for (const auto& name : names) system.TriggerFlush(system.OpenOrCreate(name));
    scenario.engine().RunUntil(scenario.engine().Now() + 1e-4);
  }
  system.FailNode(spec.failed_node);
  scenario.engine().Run();  // drain in-flight flushes and replication
  outcome.expected_lost_bytes = ExpectedLostBytes(system, scenario.runtime());
}

/// Drives the spec's workload; returns the names of the files it wrote.
std::vector<std::string> RunWorkload(const ScenarioSpec& spec, workload::Scenario& scenario,
                                     SystemUnderTest& sut, RunOutcome& outcome) {
  // kPlan crashes are scheduled by the armed fault::Injector, not injected
  // at a workload milestone — only the legacy point modes go through
  // InjectFailure.
  const bool inject = (spec.failure == FailureMode::kAfterWrites ||
                       spec.failure == FailureMode::kDuringFlush) &&
                      sut.univistor != nullptr;
  const bool plan_readback = spec.failure == FailureMode::kPlan && sut.univistor != nullptr;

  switch (spec.workload) {
    case WorkloadKind::kMicro:
    case WorkloadKind::kMicroReadBack: {
      const auto app = scenario.runtime().LaunchProgram("fuzz-app", spec.procs);
      workload::MicroParams params{
          .bytes_per_proc = spec.bytes_per_rank, .read = false, .file_name = kMicroFileName};
      workload::RunHdfMicro(scenario, app, *sut.driver, params);
      if (spec.workload == WorkloadKind::kMicroReadBack) {
        if (inject) InjectFailure(spec, scenario, *sut.univistor, {kMicroFileName}, outcome);
        params.read = true;
        workload::RunHdfMicro(scenario, app, *sut.driver, params);
      }
      return {kMicroFileName};
    }

    case WorkloadKind::kVpic: {
      const auto app = scenario.runtime().LaunchProgram("fuzz-vpic", spec.procs);
      const workload::VpicParams params{.steps = spec.steps,
                                        .vars = 2,
                                        .bytes_per_var = spec.bytes_per_rank / 2,
                                        .compute_time = spec.compute_time,
                                        .file_prefix = kVpicPrefix};
      workload::VpicRun vpic(scenario, app, *sut.driver, params);
      vpic.Start();
      scenario.engine().Run();
      std::vector<std::string> names;
      for (int s = 0; s < params.steps; ++s) names.push_back(vpic.StepFileName(s));
      if (inject) InjectFailure(spec, scenario, *sut.univistor, names, outcome);
      if (inject || plan_readback) {
        // Read everything back through BD-CATS to exercise the loss path.
        const auto reader = scenario.runtime().LaunchProgram("fuzz-bdcats", spec.procs);
        workload::RunBdcats(scenario, reader, *sut.driver,
                            workload::BdcatsParams{.producer = params,
                                                   .producer_ranks = spec.procs});
      }
      return names;
    }

    case WorkloadKind::kWorkflow: {
      const int producers = spec.procs / 2;
      const int consumers = spec.procs - producers;
      const auto producer = scenario.runtime().LaunchProgram("fuzz-vpic", producers);
      const auto consumer = scenario.runtime().LaunchProgram("fuzz-bdcats", consumers);
      const workload::VpicParams params{.steps = spec.steps,
                                        .vars = 2,
                                        .bytes_per_var = spec.bytes_per_rank / 2,
                                        .compute_time = spec.compute_time,
                                        .file_prefix = kVpicPrefix};
      workload::VpicRun vpic(scenario, producer, *sut.driver, params);
      workload::BdcatsRun bdcats(
          scenario, consumer, *sut.driver,
          workload::BdcatsParams{.producer = params, .producer_ranks = producers});
      vpic.Start();
      if (sut.univistor != nullptr) {
        // Workflow locks serialize per-file access; overlap is safe.
        bdcats.Start();
      } else {
        // Baselines have no workflow management: run sequentially so the
        // consumer never reads a half-written file.
        scenario.engine().Spawn(
            [](workload::VpicRun& v, workload::BdcatsRun& b) -> sim::Task {
              co_await v.done().Wait();
              b.Start();
            }(vpic, bdcats),
            "fuzz-workflow-chain");
      }
      scenario.engine().Run();
      std::vector<std::string> names;
      for (int s = 0; s < params.steps; ++s) names.push_back(vpic.StepFileName(s));
      return names;
    }
  }
  return {};
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
/// instances contending through it. Cluster-level invariants (starvation
/// horizon, BB reservation conservation, per-job lost-byte accounting)
/// ride on top of the per-system checks.
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

    std::unique_ptr<fault::Injector> injector;
    if (spec.failure == FailureMode::kPlan) {
      auto plan = fault::ParsePlan(spec.fault_plan);
      if (!plan.ok()) {
        outcome.report.Add("fault-plan", plan.status().message());
        return outcome;
      }
      injector = std::make_unique<fault::Injector>(scenario.engine(), *plan);
      sim.AttachInjector(*injector);
      workload::WireFaults(*injector, scenario, nullptr, spec.recovery,
                           workload::kScrubStripeInterval);
      injector->Arm();
    }

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

    CheckQuiescence(scenario.engine(), outcome.report);
    CheckPoolConservation(scenario, outcome.report);
    CheckProcessesRetired(scenario, outcome.report);
    if (sim.arrived_jobs() != sim.job_count()) {
      outcome.report.Add("cluster-conservation",
                         std::to_string(sim.arrived_jobs()) + " of " +
                             std::to_string(sim.job_count()) + " jobs arrived");
    }
    if (sim.completed_jobs() != sim.arrived_jobs()) {
      outcome.report.Add("cluster-starvation",
                         std::to_string(sim.arrived_jobs() - sim.completed_jobs()) +
                             " arrived jobs never completed (queued or stranded)");
    }
    if (outcome.sim_time > sim.StarvationHorizon()) {
      outcome.report.Add("cluster-starvation",
                         "mix drained at t=" + std::to_string(outcome.sim_time) +
                             ", past the bounded horizon " +
                             std::to_string(sim.StarvationHorizon()));
    }
    if (sim.peak_bb_reserved() > sim.bb_capacity()) {
      outcome.report.Add("cluster-bb-capacity",
                         "peak BB reservation " + std::to_string(sim.peak_bb_reserved()) +
                             " exceeds capacity " + std::to_string(sim.bb_capacity()));
    }
    if (spec.ec_k > 0) CheckErasure(scenario.pfs(), outcome.report);
    for (int j = 0; j < sim.job_count(); ++j) {
      const univistor::UniviStor* sys = sim.system(j);
      if (sys == nullptr) continue;
      CheckUniviStor(*sys, outcome.report);
      const std::string label = "job " + std::to_string(j);
      const Bytes lost = sys->lost_bytes();
      if (spec.failure == FailureMode::kPlan) {
        // Plan crashes land at arbitrary points, so the metadata-derived
        // expectation is an upper bound per tenant (see ExpectedLostBytes).
        const Bytes bound = ExpectedLostBytes(*sys, scenario.runtime());
        outcome.expected_lost_bytes += bound;
        if (lost > bound) {
          outcome.report.Add("cluster-lost-bound",
                             label + " reports " + std::to_string(lost) +
                                 " lost bytes, above its metadata-derived bound of " +
                                 std::to_string(bound));
        }
      } else if (lost != 0) {
        outcome.report.Add("cluster-lost-accounting",
                           label + " reports " + std::to_string(lost) +
                               " lost bytes with no fault injected");
      }
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

    // Seed-timed fault plans: arm the injector before the workload starts
    // so its events interleave with writes, flushes, and reads.
    std::unique_ptr<fault::Injector> injector;
    if (spec.failure == FailureMode::kPlan && sut.univistor != nullptr) {
      auto plan = fault::ParsePlan(spec.fault_plan);
      if (!plan.ok()) {
        outcome.report.Add("fault-plan", plan.status().message());
        return outcome;
      }
      injector = std::make_unique<fault::Injector>(scenario.engine(), *plan);
      workload::WireFaults(*injector, scenario, sut.univistor.get(), spec.recovery,
                           workload::kScrubStripeInterval);
      injector->Arm();
    }

    const auto names = RunWorkload(spec, scenario, sut, outcome);
    scenario.engine().Run();  // final drain (asynchronous flushes)
    if (spec.ec_k > 0 && spec.scrub)
      workload::RunFinalScrub(scenario, workload::kScrubStripeInterval);
    outcome.sim_time = scenario.engine().Now();
    CollectFileSizes(names, sut, scenario, outcome);
    if (sut.univistor != nullptr) outcome.lost_bytes = sut.univistor->lost_bytes();
    if (spec.failure == FailureMode::kPlan && sut.univistor != nullptr) {
      outcome.expected_lost_bytes = ExpectedLostBytes(*sut.univistor, scenario.runtime());
    }

    CheckQuiescence(scenario.engine(), outcome.report);
    CheckPoolConservation(scenario, outcome.report);
    if (sut.univistor != nullptr) CheckUniviStor(*sut.univistor, outcome.report);
    if (spec.ec_k > 0) CheckErasure(scenario.pfs(), outcome.report);
    if (spec.failure == FailureMode::kPlan) {
      // Plan crashes land at arbitrary points relative to the reads, so
      // reads that beat the crash legitimately succeed; the watermark
      // expectation is an upper bound ("bytes lost never exceed the
      // un-replicated, un-flushed dirty window of the dead nodes").
      if (outcome.lost_bytes > outcome.expected_lost_bytes) {
        outcome.report.Add("lost-bound",
                           "system reports " + std::to_string(outcome.lost_bytes) +
                               " lost bytes, above the metadata-derived bound of " +
                               std::to_string(outcome.expected_lost_bytes));
      }
    } else if (outcome.lost_bytes != outcome.expected_lost_bytes) {
      outcome.report.Add("lost-accounting",
                         "system reports " + std::to_string(outcome.lost_bytes) +
                             " lost bytes, metadata-derived expectation is " +
                             std::to_string(outcome.expected_lost_bytes));
    }
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
