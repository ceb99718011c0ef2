// Ablation: sensitivity of the headline UniviStor-vs-Lustre ratio to the
// shared-file extent-lock penalty calibration. The paper's "up to 46x"
// depends on how badly interleaved shared-file writes degrade at scale;
// this sweep shows the reproduction is qualitatively stable across a wide
// band of the calibration constant.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  const int procs = std::min(2048, ScaleSweep().back());
  Table table({"penalty", "Lustre(GB/s)", "UVS/DRAM(GB/s)", "DRAM/Lustre"});
  for (double penalty : {0.2, 0.45, 0.65, 0.85, 1.2}) {
    workload::ScenarioOptions options;
    options.procs = procs;
    options.policy = sched::PlacementPolicy::kCfs;
    options.cluster_params = hw::CoriPreset(procs);
    options.cluster_params.pfs.shared_file_lock_penalty = penalty;
    Scenario lustre_scenario(options);
    const SystemUnderTest lustre = BuildSystem(lustre_scenario, SystemKind::kLustre, {});
    auto app = lustre_scenario.runtime().LaunchProgram("app", procs);
    const auto lustre_t = RunHdfMicro(lustre_scenario, app, *lustre.driver,
                                      MicroParams{.bytes_per_proc = 256_MiB});

    auto uvs = MakeUniviStor(procs, univistor::Config{});
    const auto uvs_t = RunHdfMicro(*uvs.scenario, uvs.app, *uvs.system.driver,
                                   MicroParams{.bytes_per_proc = 256_MiB});

    table.AddNumericRow({penalty, lustre_t.rate() / 1e9, uvs_t.rate() / 1e9,
                         uvs_t.rate() / lustre_t.rate()});
  }
  Emit("Ablation: shared-file lock penalty sensitivity, " + std::to_string(procs) +
           " procs",
       table);
  return 0;
}
