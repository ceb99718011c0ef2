// Fig. 8: total I/O time of 10-time-step VPIC-IO, where the accumulated
// data (80 GiB/node) no longer fits UniviStor's DRAM tier (44 GiB/node)
// and spills to the burst buffer: DRAM+BB+Disk vs BB+Disk vs Disk.
//
// Paper-reported shape: the multi-layer DRAM+BB+Disk configuration beats
// BB+Disk by 1.2–1.6x (1.4x avg) and Disk by 1.4–2x (1.7x avg).
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

VpicParams Params() {
  return VpicParams{.steps = 10,
                    .vars = 8,
                    .bytes_per_var = 32_MiB,
                    .compute_time = 60.0,
                    .file_prefix = "vpic"};
}

VpicResult Run(int procs, hw::Layer first_layer) {
  univistor::Config config;
  config.first_cache_layer = first_layer;
  auto setup = MakeUniviStor(procs, config);
  return RunVpic(*setup.scenario, setup.app, *setup.system.driver, Params());
}

}  // namespace

int main() {
  Table table({"procs", "DRAM+BB+Disk(s)", "BB+Disk(s)", "Disk(s)", "vs_BB+Disk",
               "vs_Disk"});
  for (int procs : ScaleSweep()) {
    const auto spill = Run(procs, hw::Layer::kDram);
    const auto bb = Run(procs, hw::Layer::kSharedBurstBuffer);
    const auto disk = Run(procs, hw::Layer::kPfs);
    table.AddNumericRow({static_cast<double>(procs), spill.total_io_time, bb.total_io_time,
                         disk.total_io_time, bb.total_io_time / spill.total_io_time,
                         disk.total_io_time / spill.total_io_time});
  }
  Emit("Fig 8: total I/O time, 10-step VPIC-IO spilling across layers", table);
  return 0;
}
