// Ablation: log chunk size (§II-B1). Chunk granularity trades metadata
// volume (records split at chunk/spill boundaries) against internal
// fragmentation of the chunk-granular layer accounting.
#include "bench/bench_common.hpp"
#include "src/common/strings.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  const int procs = std::min(256, ScaleSweep().back());
  Table table({"chunk", "write(GB/s)", "flush(GB/s)", "md records"});
  for (Bytes chunk : {4_MiB, 16_MiB, 32_MiB, 64_MiB, 256_MiB}) {
    univistor::Config config;
    config.chunk_size = chunk;
    auto setup = MakeUniviStor(procs, config);
    const auto write = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                                   MicroParams{.bytes_per_proc = 256_MiB});
    const auto& stats = setup.system.univistor->flush_stats();
    const double flush_rate = stats.last_flush_duration > 0
                                  ? static_cast<double>(stats.bytes_flushed) /
                                        stats.last_flush_duration / 1e9
                                  : 0.0;
    table.AddRow({HumanBytes(chunk), FormatDouble(write.rate() / 1e9, 2),
                  FormatDouble(flush_rate, 2), "n/a"});
  }
  Emit("Ablation: log chunk size, " + std::to_string(procs) + " procs", table);
  return 0;
}
