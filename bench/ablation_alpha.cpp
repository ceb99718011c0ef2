// Ablation: the alpha parameter of adaptive striping (Eq. 2) — the number
// of OSTs that saturates one flushing server. Sweeps alpha at a fixed
// scale and reports the flush rate; the curve should rise until the
// per-server bandwidth is saturated and then flatten (larger stripe sets
// only add synchronization overhead).
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  const int procs = std::min(512, ScaleSweep().back());
  Table table({"alpha", "flush(GB/s)", "per-server OSTs", "sync targets"});
  for (int alpha : {1, 2, 4, 8, 16, 32, 64}) {
    univistor::Config config;
    config.striping.alpha = alpha;
    auto setup = MakeUniviStor(procs, config);
    RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                MicroParams{.bytes_per_proc = 256_MiB, .file_name = "micro.h5"});
    const auto& stats = setup.system.univistor->flush_stats();
    const double rate = stats.last_flush_duration > 0
                            ? static_cast<double>(stats.bytes_flushed) /
                                  stats.last_flush_duration / 1e9
                            : 0.0;
    const auto plan = placement::PlanAdaptiveStriping(
        stats.bytes_flushed, setup.system.univistor->total_servers(),
        setup.scenario->pfs().ost_count(), config.striping);
    table.AddNumericRow({static_cast<double>(alpha), rate,
                         static_cast<double>(plan.osts_per_server),
                         static_cast<double>(plan.osts_per_server)});
  }
  Emit("Ablation: flush rate vs alpha (Eq. 2 saturation parameter), " +
           std::to_string(procs) + " procs",
       table);
  return 0;
}
