// Ablation: metadata range size (§II-B3). Small ranges spread records (and
// lookup RPCs) across more servers; large ranges concentrate them. Reports
// write and read rates plus how many metadata servers a 256 MB read fans
// out to.
#include "bench/bench_common.hpp"
#include "src/common/strings.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  const int procs = std::min(512, ScaleSweep().back());
  Table table({"range", "write(GB/s)", "read(GB/s)", "md servers/read"});
  for (Bytes range : {1_MiB, 4_MiB, 8_MiB, 32_MiB, 128_MiB, 1_GiB}) {
    univistor::Config config;
    config.metadata_range_size = range;
    config.flush_on_close = false;
    auto setup = MakeUniviStor(procs, config);
    const auto write = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                                   MicroParams{.bytes_per_proc = 256_MiB});
    const auto read = RunHdfMicro(
        *setup.scenario, setup.app, *setup.system.driver,
        MicroParams{.bytes_per_proc = 256_MiB, .read = true});
    const kv::RangePartitioner part(setup.system.univistor->total_servers(), range);
    const auto fanout = part.ServersFor(0, 256_MiB).size();
    table.AddRow({HumanBytes(range), FormatDouble(write.rate() / 1e9, 2),
                  FormatDouble(read.rate() / 1e9, 2), std::to_string(fanout)});
  }
  Emit("Ablation: metadata range size, " + std::to_string(procs) + " procs", table);
  return 0;
}
