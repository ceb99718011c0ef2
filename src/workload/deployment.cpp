#include "src/workload/deployment.hpp"

#include "src/baselines/lustre_driver.hpp"
#include "src/fault/injector.hpp"
#include "src/univistor/driver.hpp"

namespace uvs::workload {

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kUniviStor: return "univistor";
    case SystemKind::kLustre: return "lustre";
    case SystemKind::kDataElevator: return "data_elevator";
  }
  return "?";
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMicro: return "micro";
    case WorkloadKind::kMicroReadBack: return "micro_read";
    case WorkloadKind::kVpic: return "vpic";
    case WorkloadKind::kWorkflow: return "workflow";
  }
  return "?";
}

SystemUnderTest BuildSystem(Scenario& scenario, SystemKind kind,
                            const univistor::Config& config) {
  SystemUnderTest sut;
  switch (kind) {
    case SystemKind::kUniviStor:
      sut.univistor = std::make_unique<univistor::UniviStor>(
          scenario.runtime(), scenario.pfs(), scenario.workflow(), config);
      sut.driver = std::make_unique<univistor::UniviStorDriver>(*sut.univistor);
      break;
    case SystemKind::kLustre:
      sut.driver = std::make_unique<baselines::LustreDriver>(scenario.runtime(), scenario.pfs());
      break;
    case SystemKind::kDataElevator:
      sut.data_elevator =
          std::make_unique<baselines::DataElevator>(scenario.runtime(), scenario.pfs());
      sut.driver = std::make_unique<baselines::DataElevatorDriver>(*sut.data_elevator);
      break;
  }
  return sut;
}

std::unique_ptr<fault::Injector> ArmFaults(Scenario& scenario, const fault::Plan& plan,
                                           univistor::UniviStor* univistor, bool recover,
                                           Time scrub_interval) {
  auto injector = std::make_unique<fault::Injector>(scenario.engine(), plan);
  injector->set_cluster(&scenario.cluster());
  if (univistor != nullptr) {
    injector->SetCrashHandler([univistor](int node) { univistor->FailNode(node); });
    univistor->AttachFaults(injector.get());
  }
  storage::Pfs* pfs = &scenario.pfs();
  sim::Engine* engine = &scenario.engine();
  injector->AddOstFailHandler([pfs, engine, recover](int ost) {
    pfs->FailOst(ost);
    if (recover) engine->Spawn(pfs->RebuildOst(ost), "ec-rebuild");
  });
  injector->AddLatentHandler([pfs](int ost) { pfs->InjectLatentError(ost); });
  injector->AddScrubHandler([pfs, engine, scrub_interval] {
    engine->Spawn(pfs->ScrubPass(scrub_interval), "ec-scrub");
  });
  injector->Arm();
  return injector;
}

void RunFinalScrub(Scenario& scenario, Time interval) {
  scenario.engine().Spawn(scenario.pfs().ScrubPass(interval), "ec-scrub-final");
  scenario.engine().Run();
}

VpicParams WorkloadParams::Vpic() const {
  return VpicParams{.steps = steps,
                    .vars = vpic_vars,
                    .bytes_per_var = bytes_per_rank / static_cast<Bytes>(vpic_vars),
                    .compute_time = compute_time};
}

WorkloadResult DriveWorkload(Scenario& scenario, const SystemUnderTest& sut,
                             const WorkloadParams& params,
                             const std::function<void()>& between_phases) {
  vmpi::Runtime& runtime = scenario.runtime();
  vmpi::AdioDriver& driver = *sut.driver;
  WorkloadResult result;
  if (params.kind == WorkloadKind::kMicro || params.kind == WorkloadKind::kMicroReadBack) {
    const vmpi::ProgramId app = runtime.LaunchProgram("app", params.procs);
    MicroParams micro{.bytes_per_proc = params.bytes_per_rank};
    result.micro = RunHdfMicro(scenario, app, driver, micro);
    if (params.kind == WorkloadKind::kMicroReadBack) {
      if (between_phases) between_phases();
      micro.read = true;
      result.micro = RunHdfMicro(scenario, app, driver, micro);
    }
    result.files = {micro.file_name};
    return result;
  }
  const VpicParams vpic = params.Vpic();
  if (params.kind == WorkloadKind::kVpic) {
    result.vpic = RunVpic(scenario, runtime.LaunchProgram("vpic", params.procs), driver, vpic);
  } else {
    const int writers = params.procs / 2;
    const vmpi::ProgramId writer = runtime.LaunchProgram("vpic", writers);
    const vmpi::ProgramId reader = runtime.LaunchProgram("bdcats", params.procs - writers);
    result.workflow =
        RunWorkflow(scenario, driver, writer, reader, vpic, sut.univistor != nullptr);
  }
  for (int step = 0; step < vpic.steps; ++step) result.files.push_back(vpic.StepFileName(step));
  return result;
}

WorkflowResult RunWorkflow(Scenario& scenario, vmpi::AdioDriver& driver, vmpi::ProgramId writer,
                           vmpi::ProgramId reader, const VpicParams& params, bool overlap) {
  sim::Engine& engine = scenario.engine();
  VpicRun vpic(scenario, writer, driver, params);
  BdcatsRun bdcats(
      scenario, reader, driver,
      BdcatsParams{.producer = params, .producer_ranks = scenario.runtime().ProgramSize(writer)});
  const Time start = engine.Now();
  Time end = start;
  vpic.Start();
  if (overlap) {
    bdcats.Start();
  } else {
    engine.Spawn([](VpicRun& v, BdcatsRun& b) -> sim::Task {
      co_await v.done().Wait();
      b.Start();
    }(vpic, bdcats));
  }
  engine.Spawn([](BdcatsRun& b, sim::Engine& e, Time& done_at) -> sim::Task {
    co_await b.done().Wait();
    done_at = e.Now();
  }(bdcats, engine, end));
  engine.Run();
  return WorkflowResult{.producer = vpic.result(), .consumer = bdcats.result(),
                        .elapsed = end - start};
}

obs::Report AnalyzeRun(const obs::Recorder& recorder, Scenario& scenario,
                       const univistor::UniviStor* univistor) {
  vmpi::Runtime& runtime = scenario.runtime();
  std::vector<obs::JobSpec> jobs;
  for (int p = 0; p < runtime.program_count(); ++p)
    jobs.push_back({p, runtime.ProgramName(p), runtime.IsServer(p), runtime.ProgramSize(p)});
  const Time elapsed = scenario.engine().Now();
  obs::Report report = obs::Analyze(recorder, jobs, elapsed);

  const auto add = [&](std::string device, Time busy, double saturation, Time degraded,
                       int errors) {
    report.devices.push_back({.device = std::move(device),
                              .utilization = elapsed > 0 ? busy / elapsed : 0.0,
                              .saturation = saturation,
                              .errors = errors,
                              .busy = busy,
                              .degraded = degraded});
  };
  if (univistor != nullptr) {
    const auto& servers = univistor->md_load();
    for (std::size_t s = 0; s < servers.size(); ++s)
      if (servers[s].service > 0)
        add("md" + std::to_string(s), servers[s].service, servers[s].wait, 0, 0);
  }
  // A pool's busy time excludes the access latency an access span covers.
  const auto add_array = [&](const char* prefix, hw::DeviceArray& array) {
    for (int i = 0; i < array.size(); ++i) {
      const sim::FairSharePool& pool = array.pool(i);
      if (pool.total_bytes() == 0 && array.degrade_windows(i) == 0) continue;
      add(prefix + std::to_string(i), pool.busy_time(), pool.queue_depth_seconds(),
          array.degraded_seconds(i), array.degrade_windows(i));
    }
  };
  add_array("bb", scenario.cluster().burst_buffer());
  add_array("ost", scenario.cluster().pfs());
  return report;
}

}  // namespace uvs::workload
