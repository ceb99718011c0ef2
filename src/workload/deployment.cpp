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

void WireFaults(fault::Injector& injector, Scenario& scenario, univistor::UniviStor* univistor,
                bool recover, Time scrub_interval) {
  injector.set_cluster(&scenario.cluster());
  if (univistor != nullptr) {
    injector.SetCrashHandler([univistor](int node) { univistor->FailNode(node); });
    univistor->AttachFaults(&injector);
  }
  storage::Pfs* pfs = &scenario.pfs();
  sim::Engine* engine = &scenario.engine();
  injector.AddOstFailHandler([pfs, engine, recover](int ost) {
    pfs->FailOst(ost);
    if (recover) engine->Spawn(pfs->RebuildOst(ost), "ec-rebuild");
  });
  injector.AddLatentHandler([pfs](int ost) { pfs->InjectLatentError(ost); });
  injector.AddScrubHandler([pfs, engine, scrub_interval] {
    engine->Spawn(pfs->ScrubPass(scrub_interval), "ec-scrub");
  });
}

void RunFinalScrub(Scenario& scenario, Time interval) {
  scenario.engine().Spawn(scenario.pfs().ScrubPass(interval), "ec-scrub-final");
  scenario.engine().Run();
}

}  // namespace uvs::workload
