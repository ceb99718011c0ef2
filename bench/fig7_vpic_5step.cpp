// Fig. 7: total I/O time of 5-time-step VPIC-IO (256 MB/proc/step, 60 s
// compute between steps) on a single storage layer: UniviStor/DRAM,
// UniviStor/BB, Data Elevator, Lustre. The "+Flush" share is the wait for
// the final time step's asynchronous flush.
//
// Paper-reported shape: UVS/DRAM 1.9–3.1x (2.5x avg) and UVS/BB 1.1–1.6x
// (1.3x avg) faster than DE; DE and UVS/BB converge at small scale.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

VpicParams Params() {
  return VpicParams{.steps = 5,
                    .vars = 8,
                    .bytes_per_var = 32_MiB,
                    .compute_time = 60.0,
                    .file_prefix = "vpic"};
}

}  // namespace

int main() {
  Table table({"procs", "UVS/DRAM(s)", "UVS/DRAM+Fl(s)", "UVS/BB(s)", "UVS/BB+Fl(s)",
               "DE(s)", "DE+Fl(s)", "Lustre(s)", "DRAM/DE", "BB/DE"});
  for (int procs : ScaleSweep()) {
    univistor::Config dram_config;
    auto dram = MakeUniviStor(procs, dram_config);
    const auto dram_r = RunVpic(*dram.scenario, dram.app, *dram.system.driver, Params());

    univistor::Config bb_config;
    bb_config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
    auto bb = MakeUniviStor(procs, bb_config);
    const auto bb_r = RunVpic(*bb.scenario, bb.app, *bb.system.driver, Params());

    auto de = MakeDataElevator(procs);
    const auto de_r = RunVpic(*de.scenario, de.app, *de.system.driver, Params());

    auto lustre = MakeLustre(procs);
    const auto lustre_r = RunVpic(*lustre.scenario, lustre.app, *lustre.system.driver, Params());

    table.AddNumericRow({static_cast<double>(procs), dram_r.write_time,
                         dram_r.total_io_time, bb_r.write_time, bb_r.total_io_time,
                         de_r.write_time, de_r.total_io_time, lustre_r.total_io_time,
                         de_r.total_io_time / dram_r.total_io_time,
                         de_r.total_io_time / bb_r.total_io_time});
  }
  Emit("Fig 7: total I/O time, 5-step VPIC-IO (write + final flush)", table);
  return 0;
}
