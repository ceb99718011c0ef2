// Fig. 5c: server-side flush rate from distributed DRAM to Lustre with and
// without ADaPTive striping (ADPT) and Interference-Aware scheduling (IA).
//
// Paper-reported shape: enabling both improves the flush by 1.9–2.7x
// (2.3x avg) over either ablation.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

double FlushRate(int procs, bool adpt, bool ia) {
  univistor::Config config;
  config.adaptive_striping = adpt;
  config.interference_aware_flush = ia;
  auto setup = MakeUniviStor(procs, config, /*cfs=*/!ia);
  RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
              MicroParams{.bytes_per_proc = 256_MiB, .file_name = "micro.h5"});
  const auto& stats = setup.system.univistor->flush_stats();
  return stats.last_flush_duration > 0
             ? static_cast<double>(stats.bytes_flushed) / stats.last_flush_duration
             : 0.0;
}

}  // namespace

int main() {
  Table table(
      {"procs", "IA+ADPT(GB/s)", "noIA(GB/s)", "noADPT(GB/s)", "vs_noIA", "vs_noADPT"});
  for (int procs : ScaleSweep()) {
    const double both = FlushRate(procs, true, true);
    const double no_ia = FlushRate(procs, true, false);
    const double no_adpt = FlushRate(procs, false, true);
    table.AddNumericRow({static_cast<double>(procs), both / 1e9, no_ia / 1e9, no_adpt / 1e9,
                         both / no_ia, both / no_adpt});
  }
  Emit("Fig 5c: FLUSH DRAM->Lustre — ADPT / IA ablation, 256 MB/proc", table);
  return 0;
}
