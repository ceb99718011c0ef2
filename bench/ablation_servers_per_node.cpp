// Ablation: UniviStor servers per node. The paper deploys 2 (one per NUMA
// socket, §III-A); this sweep shows the write and flush effects of 1, 2,
// and 4 servers per node.
#include "bench/bench_common.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  const int procs = std::min(512, ScaleSweep().back());
  Table table({"servers/node", "write(GB/s)", "flush(GB/s)", "md partitions"});
  for (int spn : {1, 2, 4}) {
    univistor::Config config;
    config.servers_per_node = spn;
    auto setup = MakeUniviStor(procs, config);
    const auto write = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                                   MicroParams{.bytes_per_proc = 256_MiB});
    const auto& stats = setup.system.univistor->flush_stats();
    const double flush_rate = stats.last_flush_duration > 0
                                  ? static_cast<double>(stats.bytes_flushed) /
                                        stats.last_flush_duration / 1e9
                                  : 0.0;
    table.AddNumericRow({static_cast<double>(spn), write.rate() / 1e9, flush_rate,
                         static_cast<double>(setup.system.univistor->total_servers())});
  }
  Emit("Ablation: servers per node, " + std::to_string(procs) + " procs", table);
  return 0;
}
