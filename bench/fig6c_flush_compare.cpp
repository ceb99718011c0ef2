// Fig. 6c: flush I/O rate to Lustre — UniviStor flushing from DRAM and
// from the BB vs Data Elevator flushing from the BB.
//
// Paper-reported shape: UVS/DRAM beats DE by 1.8–2.5x (2x avg), UVS/BB by
// 1.6–2.5x (1.8x avg), thanks to ADPT (OST load balance, no per-OST sync
// storm) and IA (no client interference during the flush).
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

const MicroParams kParams{.bytes_per_proc = 256_MiB, .file_name = "micro.h5"};

double UvsFlushRate(int procs, hw::Layer first_layer) {
  univistor::Config config;
  config.first_cache_layer = first_layer;
  auto setup = MakeUniviStor(procs, config);
  RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver, kParams);
  const auto& stats = setup.system.univistor->flush_stats();
  return stats.last_flush_duration > 0
             ? static_cast<double>(stats.bytes_flushed) / stats.last_flush_duration
             : 0.0;
}

double DeFlushRate(int procs) {
  auto setup = MakeDataElevator(procs);
  RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver, kParams);
  const auto& stats = setup.system.data_elevator->flush_stats();
  return stats.last_flush_duration > 0
             ? static_cast<double>(stats.bytes_flushed) / stats.last_flush_duration
             : 0.0;
}

}  // namespace

int main() {
  Table table({"procs", "UVS/DRAM(GB/s)", "UVS/BB(GB/s)", "DataElev(GB/s)", "DRAM/DE",
               "BB/DE"});
  for (int procs : ScaleSweep()) {
    const double dram = UvsFlushRate(procs, hw::Layer::kDram);
    const double bb = UvsFlushRate(procs, hw::Layer::kSharedBurstBuffer);
    const double de = DeFlushRate(procs);
    table.AddNumericRow({static_cast<double>(procs), dram / 1e9, bb / 1e9, de / 1e9,
                         dram / de, bb / de});
  }
  Emit("Fig 6c: FLUSH rate to Lustre — UniviStor vs Data Elevator", table);
  return 0;
}
