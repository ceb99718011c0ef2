// Fig. 6b: read I/O rate of UniviStor (DRAM/BB) vs Data Elevator vs
// Lustre. Each rank writes 256 MB, then reads it back.
//
// Paper-reported shape: UVS/DRAM beats DE by 2.7–4.5x (3.6x avg), UVS/BB
// beats DE by 1.15–1.6x (1.2x avg); up to 16.8x / 5.4x over Lustre.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  Table table({"procs", "UVS/DRAM(GB/s)", "UVS/BB(GB/s)", "DataElev(GB/s)", "Lustre(GB/s)",
               "DRAM/DE", "BB/DE", "DRAM/Lustre", "BB/Lustre"});
  const MicroParams write_params{.bytes_per_proc = 256_MiB, .file_name = "micro.h5"};
  MicroParams read_params = write_params;
  read_params.read = true;

  for (int procs : ScaleSweep()) {
    univistor::Config dram_config;
    dram_config.flush_on_close = false;
    auto dram = MakeUniviStor(procs, dram_config);
    RunHdfMicro(*dram.scenario, dram.app, *dram.system.driver, write_params);
    const auto dram_t = RunHdfMicro(*dram.scenario, dram.app, *dram.system.driver, read_params);

    univistor::Config bb_config = dram_config;
    bb_config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
    auto bb = MakeUniviStor(procs, bb_config);
    RunHdfMicro(*bb.scenario, bb.app, *bb.system.driver, write_params);
    const auto bb_t = RunHdfMicro(*bb.scenario, bb.app, *bb.system.driver, read_params);

    auto de = MakeDataElevator(procs);
    RunHdfMicro(*de.scenario, de.app, *de.system.driver, write_params);
    const auto de_t = RunHdfMicro(*de.scenario, de.app, *de.system.driver, read_params);

    auto lustre = MakeLustre(procs);
    RunHdfMicro(*lustre.scenario, lustre.app, *lustre.system.driver, write_params);
    const auto lustre_t = RunHdfMicro(*lustre.scenario, lustre.app, *lustre.system.driver,
                                      read_params);

    table.AddNumericRow({static_cast<double>(procs), Rate(dram_t.bytes, dram_t.elapsed),
                         Rate(bb_t.bytes, bb_t.elapsed), Rate(de_t.bytes, de_t.elapsed),
                         Rate(lustre_t.bytes, lustre_t.elapsed),
                         dram_t.rate() / de_t.rate(), bb_t.rate() / de_t.rate(),
                         dram_t.rate() / lustre_t.rate(), bb_t.rate() / lustre_t.rate()});
  }
  Emit("Fig 6b: micro-benchmark READ rate, 256 MB/proc", table);
  return 0;
}
