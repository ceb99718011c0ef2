// Fig. 6a: write I/O rate of UniviStor (DRAM and BB tiers) vs Data
// Elevator vs Lustre, HDF5 micro-benchmark, 256 MB per process.
//
// Paper-reported shape: UniviStor/DRAM > UniviStor/BB > Data Elevator >
// Lustre at every scale; DRAM beats DE by 3.7–5.6x (4.3x avg), BB beats DE
// by 1.2–1.7x (1.3x avg); DRAM up to 46x and BB up to 12x over Lustre.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  Table table({"procs", "UVS/DRAM(GB/s)", "UVS/BB(GB/s)", "DataElev(GB/s)", "Lustre(GB/s)",
               "DRAM/DE", "BB/DE", "DRAM/Lustre", "BB/Lustre"});
  const MicroParams params{.bytes_per_proc = 256_MiB, .file_name = "micro.h5"};

  for (int procs : ScaleSweep()) {
    univistor::Config dram_config;
    auto dram = MakeUniviStor(procs, dram_config);
    const auto dram_t = RunHdfMicro(*dram.scenario, dram.app, *dram.system.driver, params);

    univistor::Config bb_config;
    bb_config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
    auto bb = MakeUniviStor(procs, bb_config);
    const auto bb_t = RunHdfMicro(*bb.scenario, bb.app, *bb.system.driver, params);

    auto de = MakeDataElevator(procs);
    const auto de_t = RunHdfMicro(*de.scenario, de.app, *de.system.driver, params);

    auto lustre = MakeLustre(procs);
    const auto lustre_t = RunHdfMicro(*lustre.scenario, lustre.app, *lustre.system.driver, params);

    table.AddNumericRow({static_cast<double>(procs), Rate(dram_t.bytes, dram_t.elapsed),
                         Rate(bb_t.bytes, bb_t.elapsed), Rate(de_t.bytes, de_t.elapsed),
                         Rate(lustre_t.bytes, lustre_t.elapsed),
                         dram_t.rate() / de_t.rate(), bb_t.rate() / de_t.rate(),
                         dram_t.rate() / lustre_t.rate(), bb_t.rate() / lustre_t.rate()});
  }
  Emit("Fig 6a: micro-benchmark WRITE rate, 256 MB/proc (log-scale y in the paper)", table);
  return 0;
}
