// Ablation: two-phase collective buffering vs independent I/O on the
// Lustre baseline, vs UniviStor's redirection. Collective buffering cuts
// the number of writers that reach the shared file (and its lock
// contention) at the price of an extra network shuffle and concentrated
// aggregator CPU; UniviStor's log-structured redirection removes the
// shared-file bottleneck altogether.
#include "bench/bench_common.hpp"
#include "src/vmpi/collective.hpp"

using namespace uvs;
using namespace uvs::bench;
using namespace uvs::workload;

namespace {

struct LustreRun {
  Time elapsed = 0;
  int write_calls = 0;
  int peak_writers = 0;
};

LustreRun RunLustre(int procs, Bytes block, bool collective) {
  auto setup = MakeLustre(procs);
  vmpi::File file(setup.scenario->runtime(), setup.app,
                  {"a.h5", vmpi::FileMode::kWriteOnly}, *setup.system.driver);
  vmpi::CollectiveIo collective_io(file, {});
  auto& engine = setup.scenario->engine();
  const Time start = engine.Now();
  for (int r = 0; r < procs; ++r) {
    engine.Spawn([](vmpi::File& f, vmpi::CollectiveIo& c, int rank, Bytes b,
                    bool use_collective) -> sim::Task {
      co_await f.Open(rank);
      if (use_collective) {
        co_await c.WriteAll(rank, static_cast<Bytes>(rank) * b, b);
      } else {
        co_await f.WriteAt(rank, static_cast<Bytes>(rank) * b, b);
      }
      co_await f.Close(rank);
    }(file, collective_io, r, block, collective));
  }
  engine.Run();
  LustreRun result;
  result.elapsed = engine.Now() - start;
  const auto handle = setup.scenario->pfs().Lookup("a.h5");
  if (handle.ok()) {
    result.write_calls = setup.scenario->pfs().WriteCalls(*handle);
    result.peak_writers = setup.scenario->pfs().PeakWriters(*handle);
  }
  return result;
}

}  // namespace

int main() {
  const Bytes block = 64_MiB;
  Table table({"procs", "indep(s)", "indep writers", "collective(s)", "coll writers",
               "UniviStor(s)"});
  for (int procs : ScaleSweep()) {
    if (procs > 2048) break;  // aggregator CPU model saturates beyond this
    const auto independent = RunLustre(procs, block, false);
    const auto collective = RunLustre(procs, block, true);

    auto uvs = MakeUniviStor(procs, univistor::Config{});
    const auto uvs_t = RunHdfMicro(*uvs.scenario, uvs.app, *uvs.system.driver,
                                   MicroParams{.bytes_per_proc = block});

    table.AddNumericRow({static_cast<double>(procs), independent.elapsed,
                         static_cast<double>(independent.peak_writers), collective.elapsed,
                         static_cast<double>(collective.peak_writers), uvs_t.elapsed});
  }
  Emit("Ablation: collective buffering vs independent vs UniviStor, 64 MB/proc", table);
  return 0;
}
