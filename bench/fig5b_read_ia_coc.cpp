// Fig. 5b: read counterpart of Fig. 5a — each rank reads its block back
// from the distributed DRAM space.
//
// Paper-reported shape: IA+COC beats IA-off by 1.13–1.5x (1.25x avg) and
// COC-off by 1.15–1.8x (1.3x avg) — smaller margins than writes.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

double ReadRate(bench::Setup& setup, const MicroParams& write_params) {
  RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver, write_params);
  MicroParams read_params = write_params;
  read_params.read = true;
  const auto t = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver, read_params);
  return t.rate();
}

}  // namespace

int main() {
  Table table({"procs", "IA+COC(GB/s)", "noIA(GB/s)", "noCOC(GB/s)", "vs_noIA", "vs_noCOC"});
  const MicroParams params{.bytes_per_proc = 256_MiB, .file_name = "micro.h5"};

  for (int procs : ScaleSweep()) {
    univistor::Config config;
    config.flush_on_close = false;  // keep the read phase flush-free
    auto both = MakeUniviStor(procs, config);
    const double both_rate = ReadRate(both, params);

    univistor::Config no_ia_config = config;
    no_ia_config.interference_aware_flush = false;
    auto no_ia = MakeUniviStor(procs, no_ia_config, /*cfs=*/true);
    const double no_ia_rate = ReadRate(no_ia, params);

    univistor::Config no_coc_config = config;
    no_coc_config.collective_open_close = false;
    auto no_coc = MakeUniviStor(procs, no_coc_config);
    const double no_coc_rate = ReadRate(no_coc, params);

    table.AddNumericRow({static_cast<double>(procs), both_rate / 1e9, no_ia_rate / 1e9,
                         no_coc_rate / 1e9, both_rate / no_ia_rate,
                         both_rate / no_coc_rate});
  }
  Emit("Fig 5b: READ from distributed DRAM — IA / COC ablation, 256 MB/proc", table);
  return 0;
}
