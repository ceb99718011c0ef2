// Ablation for the §V future-work extensions.
//
// Resilience: write rate with and without asynchronous BB replication of
// volatile-layer data (the overhead of not losing unflushed checkpoints
// to a node failure).
//
// Proactive placement: repeated analysis reads of BB-resident data with
// and without the read-promotion cache (second pass served from DRAM).
#include "bench/bench_common.hpp"
#include "src/common/strings.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

int main() {
  const int procs = std::min(512, ScaleSweep().back());

  {
    Table table({"mode", "write(GB/s)", "replicated(GiB)", "write overhead"});
    double base_rate = 0;
    for (bool replicate : {false, true}) {
      univistor::Config config;
      config.flush_on_close = false;
      config.replicate_volatile = replicate;
      auto setup = MakeUniviStor(procs, config);
      const auto t = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                                 MicroParams{.bytes_per_proc = 256_MiB});
      if (!replicate) base_rate = t.rate();
      table.AddRow({replicate ? "replicate-to-BB" : "volatile-only",
                    FormatDouble(t.rate() / 1e9, 2),
                    FormatDouble(static_cast<double>(setup.system.univistor->replicated_bytes()) /
                                     static_cast<double>(1_GiB),
                                 1),
                    FormatDouble(base_rate / t.rate(), 2)});
    }
    Emit("Ablation (ext): volatile-layer replication, " + std::to_string(procs) + " procs",
         table);
  }

  {
    Table table({"mode", "pass1 read(GB/s)", "pass2 read(GB/s)", "cache hits", "promoted(GiB)"});
    for (bool promote : {false, true}) {
      univistor::Config config;
      config.flush_on_close = false;
      config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
      config.promote_hot_reads = promote;
      config.read_cache_capacity_per_node = 16_GiB;  // hold one full pass
      auto setup = MakeUniviStor(procs, config);
      RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                  MicroParams{.bytes_per_proc = 256_MiB});
      const auto pass1 = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                                     MicroParams{.bytes_per_proc = 256_MiB, .read = true});
      const auto pass2 = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                                     MicroParams{.bytes_per_proc = 256_MiB, .read = true});
      table.AddRow({promote ? "promote-hot-reads" : "no-promotion",
                    FormatDouble(pass1.rate() / 1e9, 2), FormatDouble(pass2.rate() / 1e9, 2),
                    std::to_string(setup.system.univistor->read_cache_hits()),
                    FormatDouble(static_cast<double>(setup.system.univistor->promoted_bytes()) /
                                     static_cast<double>(1_GiB),
                                 1)});
    }
    Emit("Ablation (ext): read-promotion cache, " + std::to_string(procs) + " procs", table);
  }
  return 0;
}
