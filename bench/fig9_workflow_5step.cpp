// Fig. 9: total time of the 5-step VPIC-IO -> BD-CATS-IO workflow (each
// program uses half the processes). Overlap mode runs both concurrently
// under UniviStor's workflow management; Nonoverlap starts BD-CATS after
// VPIC finishes. DE and Lustre run the nonoverlap sequence.
//
// Paper-reported shape (log-scale y): Overlap beats Nonoverlap by 1.2–1.7x
// (DRAM) / 1.5–2x (BB); UVS/DRAM Nonoverlap beats DE by 3.5–17x (9x avg)
// and UVS/BB Nonoverlap by 1.3–7.2x (3.4x avg).
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

VpicParams Params() {
  return VpicParams{.steps = 5,
                    .vars = 8,
                    .bytes_per_var = 32_MiB,
                    .compute_time = 0.0,
                    .file_prefix = "vpic"};
}

/// The workflow's elapsed time on `setup`, whose client program is VPIC's.
Time Elapsed(Setup setup, int procs, bool overlap) {
  const auto reader = setup.scenario->runtime().LaunchProgram("bdcats", procs / 2);
  return RunWorkflow(*setup.scenario, *setup.system.driver, setup.app, reader, Params(), overlap)
      .elapsed;
}

}  // namespace

int main() {
  Table table({"procs", "DRAM-Ovl(s)", "DRAM-Non(s)", "BB-Ovl(s)", "BB-Non(s)", "DE(s)",
               "Lustre(s)", "DRAM Ovl/Non", "BB Ovl/Non", "DRAM-Non/DE"});
  for (int procs : ScaleSweep()) {
    auto uvs_run = [&](hw::Layer layer, bool overlap) {
      univistor::Config config;
      config.first_cache_layer = layer;
      return Elapsed(MakeUniviStor(procs, config, /*cfs=*/false, /*workflow=*/true,
                                   /*client_programs=*/2),
                     procs, overlap);
    };
    const Time dram_ovl = uvs_run(hw::Layer::kDram, true);
    const Time dram_non = uvs_run(hw::Layer::kDram, false);
    const Time bb_ovl = uvs_run(hw::Layer::kSharedBurstBuffer, true);
    const Time bb_non = uvs_run(hw::Layer::kSharedBurstBuffer, false);

    const Time de_time =
        Elapsed(MakeDataElevator(procs, /*client_programs=*/2), procs, /*overlap=*/false);
    const Time lu_time =
        Elapsed(MakeLustre(procs, /*client_programs=*/2), procs, /*overlap=*/false);

    table.AddNumericRow({static_cast<double>(procs), dram_ovl, dram_non, bb_ovl, bb_non,
                         de_time, lu_time, dram_non / dram_ovl, bb_non / bb_ovl,
                         de_time / dram_non});
  }
  Emit("Fig 9: 5-step VPIC-IO + BD-CATS-IO workflow, elapsed time", table);
  return 0;
}
