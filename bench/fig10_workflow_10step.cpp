// Fig. 10: elapsed time of the 10-step VPIC-IO + BD-CATS-IO workflow,
// where the data set no longer fits the DRAM tier: the unified
// DRAM+BB placement vs BB only vs Lustre only (all in overlap mode under
// UniviStor's workflow management; Disk runs nonoverlap like the paper's
// Lustre sequence).
//
// Paper-reported shape: DRAM+BB beats BB by 1.5–2x (1.8x avg) and Disk by
// 4–4.8x (4.3x avg).
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

VpicParams Params() {
  return VpicParams{.steps = 10,
                    .vars = 8,
                    .bytes_per_var = 32_MiB,
                    .compute_time = 0.0,
                    .file_prefix = "vpic"};
}

Time Run(int procs, hw::Layer layer, bool overlap) {
  univistor::Config config;
  config.first_cache_layer = layer;
  auto setup = MakeUniviStor(procs, config, /*cfs=*/false, /*workflow=*/true,
                             /*client_programs=*/2);
  const auto reader = setup.scenario->runtime().LaunchProgram("bdcats", procs / 2);
  return RunWorkflow(*setup.scenario, *setup.system.driver, setup.app, reader, Params(), overlap)
      .elapsed;
}

}  // namespace

int main() {
  Table table({"procs", "DRAM+BB(s)", "BB(s)", "Disk(s)", "vs_BB", "vs_Disk"});
  for (int procs : ScaleSweep()) {
    const Time spill = Run(procs, hw::Layer::kDram, true);
    const Time bb = Run(procs, hw::Layer::kSharedBurstBuffer, true);
    const Time disk = Run(procs, hw::Layer::kPfs, false);
    table.AddNumericRow({static_cast<double>(procs), spill, bb, disk, bb / spill,
                         disk / spill});
  }
  Emit("Fig 10: 10-step VPIC-IO + BD-CATS-IO workflow across layers, elapsed time",
       table);
  return 0;
}
