// Fig. 5a: write rate to UniviStor's distributed DRAM with and without
// Interference-Aware scheduling (IA) and Collective Open/Close (COC),
// 256 MB per process.
//
// Paper-reported shape: IA+COC wins everywhere; disabling IA costs
// 1.45–2.5x (1.9x avg), disabling COC costs 1.1–3.5x (1.6x avg), with the
// COC gap widening as the process count grows.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  Table table({"procs", "IA+COC(GB/s)", "noIA(GB/s)", "noCOC(GB/s)", "vs_noIA", "vs_noCOC"});
  const MicroParams params{.bytes_per_proc = 256_MiB, .file_name = "micro.h5"};

  for (int procs : ScaleSweep()) {
    univistor::Config config;  // IA placement + COC on
    auto both = MakeUniviStor(procs, config);
    const auto both_t = RunHdfMicro(*both.scenario, both.app, *both.system.driver, params);

    univistor::Config no_ia_config;
    no_ia_config.interference_aware_flush = false;
    auto no_ia = MakeUniviStor(procs, no_ia_config, /*cfs=*/true);
    const auto no_ia_t = RunHdfMicro(*no_ia.scenario, no_ia.app, *no_ia.system.driver, params);

    univistor::Config no_coc_config;
    no_coc_config.collective_open_close = false;
    auto no_coc = MakeUniviStor(procs, no_coc_config);
    const auto no_coc_t = RunHdfMicro(*no_coc.scenario, no_coc.app, *no_coc.system.driver, params);

    table.AddNumericRow({static_cast<double>(procs), Rate(both_t.bytes, both_t.elapsed),
                         Rate(no_ia_t.bytes, no_ia_t.elapsed),
                         Rate(no_coc_t.bytes, no_coc_t.elapsed),
                         both_t.rate() / no_ia_t.rate(), both_t.rate() / no_coc_t.rate()});
  }
  Emit("Fig 5a: WRITE to distributed DRAM — IA / COC ablation, 256 MB/proc", table);
  return 0;
}
