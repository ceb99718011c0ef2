// Cross-module integration tests: data sharing between coupled programs,
// reads across the spill hierarchy, metadata routing costs, and
// scheduling-sensitive timing properties.
#include <gtest/gtest.h>

#include "src/h5lite/h5file.hpp"
#include "src/sim/combinators.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

using workload::MicroParams;
using workload::RunHdfMicro;
using workload::Scenario;
using workload::ScenarioOptions;

ScenarioOptions SmallOptions(int procs = 8) {
  ScenarioOptions options;
  options.procs = procs;
  options.cluster_params = hw::CoriPreset(procs, /*procs_per_node=*/4);
  options.cluster_params.node.cores = 8;
  options.cluster_params.node.dram_cache_capacity = 2_GiB;
  return options;
}

univistor::Config BaseConfig() {
  univistor::Config config;
  config.chunk_size = 8_MiB;
  config.metadata_range_size = 4_MiB;
  config.flush_on_close = false;
  return config;
}

struct Fixture {
  explicit Fixture(univistor::Config config = BaseConfig(),
                   ScenarioOptions options = SmallOptions())
      : scenario(options),
        system(scenario.runtime(), scenario.pfs(), scenario.workflow(), config),
        driver(system) {}

  Scenario scenario;
  univistor::UniviStor system;
  univistor::UniviStorDriver driver;
};

// A second program reads data produced by the first: every byte of rank
// r's block was written by writer rank r, which may live on another node.
TEST(CrossProgram, ConsumerReadsProducerDataAcrossNodes) {
  Fixture f;
  auto writer = f.scenario.runtime().LaunchProgram("producer", 8);
  RunHdfMicro(f.scenario, writer, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "shared.h5"});

  // Consumer rank r reads block (7 - r): guaranteed remote for most ranks.
  auto reader = f.scenario.runtime().LaunchProgram("consumer", 8);
  const auto fid = f.system.OpenOrCreate("shared.h5");
  std::vector<Time> done(8, -1);
  for (int r = 0; r < 8; ++r) {
    f.scenario.engine().Spawn([](univistor::UniviStor& sys, vmpi::ProgramId prog, int rank,
                                 storage::FileId file, Time& at,
                                 sim::Engine& engine) -> sim::Task {
      const Bytes block = 16_MiB;
      const Bytes offset = h5lite::H5File::kHeaderBytes;
      co_await sys.Read(prog, rank, file, offset + static_cast<Bytes>(7 - rank) * block,
                        block);
      at = engine.Now();
    }(f.system, reader, r, fid, done[static_cast<std::size_t>(r)], f.scenario.engine()));
  }
  f.scenario.engine().Run();
  for (Time t : done) EXPECT_GT(t, 0.0);
}

TEST(CrossProgram, RemoteReadSlowerThanLocalRead) {
  auto run = [](bool reversed) {
    Fixture f;
    auto writer = f.scenario.runtime().LaunchProgram("producer", 8);
    RunHdfMicro(f.scenario, writer, f.driver,
                MicroParams{.bytes_per_proc = 16_MiB, .file_name = "x.h5"});
    auto reader = f.scenario.runtime().LaunchProgram("consumer", 8);
    const auto fid = f.system.OpenOrCreate("x.h5");
    Time last = 0;
    std::vector<sim::Process> procs;
    const Time start = f.scenario.engine().Now();
    for (int r = 0; r < 8; ++r) {
      const int src = reversed ? 7 - r : r;  // reversed crosses nodes
      procs.push_back(f.scenario.engine().Spawn(
          [](univistor::UniviStor& sys, vmpi::ProgramId prog, int rank, int block_idx,
             storage::FileId file) -> sim::Task {
            const Bytes block = 16_MiB;
            co_await sys.Read(prog, rank, file,
                              h5lite::H5File::kHeaderBytes +
                                  static_cast<Bytes>(block_idx) * block,
                              block);
          }(f.system, reader, r, src, fid)));
    }
    f.scenario.engine().Run();
    last = f.scenario.engine().Now();
    return last - start;
  };
  // consumer rank r on node r/4 reads producer rank r (same node) vs
  // producer rank 7-r (other node, network round trip + transfer).
  EXPECT_LT(run(false), run(true));
}

TEST(SpillHierarchy, ReadSpansDramAndBurstBuffer) {
  auto options = SmallOptions();
  options.cluster_params.node.dram_cache_capacity = 64_MiB;  // forces spill
  Fixture f(BaseConfig(), options);
  auto app = f.scenario.runtime().LaunchProgram("app", 8);
  RunHdfMicro(f.scenario, app, f.driver,
              MicroParams{.bytes_per_proc = 48_MiB, .file_name = "spill.h5"});
  const auto fid = f.system.OpenOrCreate("spill.h5");
  ASSERT_GT(f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer), 0u);
  auto read = RunHdfMicro(
      f.scenario, app, f.driver,
      MicroParams{.bytes_per_proc = 48_MiB, .read = true, .file_name = "spill.h5"});
  EXPECT_GT(read.io, 0.0);
  // Every BB pool saw read traffic beyond the writes.
  Bytes bb_bytes = 0;
  for (int n = 0; n < f.scenario.cluster().burst_buffer().size(); ++n)
    bb_bytes += f.scenario.cluster().burst_buffer().pool(n).total_bytes();
  EXPECT_GT(bb_bytes, f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer));
}

TEST(SpillHierarchy, ReadSpansPfsTail) {
  auto options = SmallOptions();
  options.cluster_params.node.dram_cache_capacity = 64_MiB;
  options.cluster_params.bb.capacity_per_bb_node = 64_MiB;  // tiny BB too
  Fixture f(BaseConfig(), options);
  auto app = f.scenario.runtime().LaunchProgram("app", 8);
  RunHdfMicro(f.scenario, app, f.driver,
              MicroParams{.bytes_per_proc = 64_MiB, .file_name = "deep.h5"});
  const auto fid = f.system.OpenOrCreate("deep.h5");
  ASSERT_GT(f.system.CachedOn(fid, hw::Layer::kPfs), 0u) << "spill reached the PFS";
  auto read = RunHdfMicro(
      f.scenario, app, f.driver,
      MicroParams{.bytes_per_proc = 64_MiB, .read = true, .file_name = "deep.h5"});
  EXPECT_GT(read.io, 0.0);
}

TEST(Scheduling, InterferenceAwarePlacementSpeedsUpWrites) {
  auto run = [](sched::PlacementPolicy policy) {
    auto options = SmallOptions(32);
    options.policy = policy;
    Fixture f(BaseConfig(), options);
    auto app = f.scenario.runtime().LaunchProgram("app", 32);
    return RunHdfMicro(f.scenario, app, f.driver,
                       MicroParams{.bytes_per_proc = 32_MiB, .file_name = "w.h5"})
        .io;
  };
  // 32 clients + 2 servers per 8-core node: CFS stacks busy clients, the
  // interference-aware policy parks the overflow on idle server cores.
  EXPECT_LT(run(sched::PlacementPolicy::kInterferenceAware),
            run(sched::PlacementPolicy::kCfs));
}

TEST(Metadata, RecordsArriveOnExpectedServers) {
  Fixture f;
  auto app = f.scenario.runtime().LaunchProgram("app", 8);
  RunHdfMicro(f.scenario, app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "md.h5"});
  // 8 ranks x 16 MiB with 4 MiB ranges over 4 servers: every partition is
  // populated.
  // (The metadata service itself is private; probe via a read fan-out.)
  const auto fid = f.system.OpenOrCreate("md.h5");
  bool ok = true;
  f.scenario.engine().Spawn([](univistor::UniviStor& sys, vmpi::ProgramId prog,
                               storage::FileId file, bool& flag) -> sim::Task {
    co_await sys.Read(prog, 0, file, h5lite::H5File::kHeaderBytes, 128_MiB);
    flag = true;
  }(f.system, app, fid, ok));
  f.scenario.engine().Run();
  EXPECT_TRUE(ok);
}

TEST(FlushService, WaitAllFlushesCoversEveryFile) {
  univistor::Config config = BaseConfig();
  config.flush_on_close = true;
  Fixture f(config);
  auto app = f.scenario.runtime().LaunchProgram("app", 8);
  RunHdfMicro(f.scenario, app, f.driver,
              MicroParams{.bytes_per_proc = 8_MiB, .file_name = "a.h5"});
  RunHdfMicro(f.scenario, app, f.driver,
              MicroParams{.bytes_per_proc = 8_MiB, .file_name = "b.h5"});
  bool waited = false;
  f.scenario.engine().Spawn([](univistor::UniviStor& sys, bool& flag) -> sim::Task {
    co_await sys.WaitAllFlushes();
    flag = true;
  }(f.system, waited));
  f.scenario.engine().Run();
  EXPECT_TRUE(waited);
  EXPECT_EQ(f.system.flush_stats().flushes, 2);
}

TEST(FlushService, ReclosedFileDoesNotReflush) {
  univistor::Config config = BaseConfig();
  config.flush_on_close = true;
  Fixture f(config);
  auto app = f.scenario.runtime().LaunchProgram("app", 8);
  RunHdfMicro(f.scenario, app, f.driver,
              MicroParams{.bytes_per_proc = 8_MiB, .file_name = "w.h5"});
  const Bytes first = f.system.flush_stats().bytes_flushed;
  // Read pass closes read-only: no second flush; even a write-mode reclose
  // with no new data moves nothing.
  RunHdfMicro(f.scenario, app, f.driver,
              MicroParams{.bytes_per_proc = 8_MiB, .read = true, .file_name = "w.h5"});
  EXPECT_EQ(f.system.flush_stats().bytes_flushed, first);
}

TEST(CrossProgram, SameRankDifferentProgramsGetDistinctLogs) {
  // Regression: producer ids from different programs share low bits (the
  // rank); their log-chain keys must still be distinct, or two programs
  // writing different files would corrupt each other's space accounting.
  Fixture f;
  auto prog_a = f.scenario.runtime().LaunchProgram("a", 8);
  auto prog_b = f.scenario.runtime().LaunchProgram("b", 8);
  RunHdfMicro(f.scenario, prog_a, f.driver,
              MicroParams{.bytes_per_proc = 8_MiB, .file_name = "a.h5"});
  RunHdfMicro(f.scenario, prog_b, f.driver,
              MicroParams{.bytes_per_proc = 8_MiB, .file_name = "b.h5"});
  const auto fid_a = f.system.OpenOrCreate("a.h5");
  const auto fid_b = f.system.OpenOrCreate("b.h5");
  EXPECT_EQ(f.system.CachedOn(fid_a, hw::Layer::kDram), 8_MiB * 8);
  EXPECT_EQ(f.system.CachedOn(fid_b, hw::Layer::kDram), 8_MiB * 8);
}

TEST(CrossProgram, ConcurrentWritersToDistinctFiles) {
  // Two applications writing their own files at the same time (the App 1 /
  // App 2 coupling of Fig. 1) must both complete with correct placement.
  Fixture f;
  auto prog_a = f.scenario.runtime().LaunchProgram("a", 8);
  auto prog_b = f.scenario.runtime().LaunchProgram("b", 8);
  const auto fid_a = f.system.OpenOrCreate("wa.h5");
  const auto fid_b = f.system.OpenOrCreate("wb.h5");
  for (int r = 0; r < 8; ++r) {
    f.scenario.engine().Spawn([](univistor::UniviStor& sys, vmpi::ProgramId prog, int rank,
                                 storage::FileId fid) -> sim::Task {
      co_await sys.Write(prog, rank, fid, static_cast<Bytes>(rank) * 8_MiB, 8_MiB);
    }(f.system, prog_a, r, fid_a));
    f.scenario.engine().Spawn([](univistor::UniviStor& sys, vmpi::ProgramId prog, int rank,
                                 storage::FileId fid) -> sim::Task {
      co_await sys.Write(prog, rank, fid, static_cast<Bytes>(rank) * 8_MiB, 8_MiB);
    }(f.system, prog_b, r, fid_b));
  }
  f.scenario.engine().Run();
  EXPECT_EQ(f.system.CachedOn(fid_a, hw::Layer::kDram), 8_MiB * 8);
  EXPECT_EQ(f.system.CachedOn(fid_b, hw::Layer::kDram), 8_MiB * 8);
}

class ScaleInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ScaleInvariants, WriteRateScalesWithClientCount) {
  const int procs = GetParam();
  workload::ScenarioOptions options;
  options.procs = procs;  // full Cori preset
  Scenario scenario(options);
  univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                              univistor::Config{});
  univistor::UniviStorDriver driver(system);
  auto app = scenario.runtime().LaunchProgram("app", procs);
  const auto t = RunHdfMicro(scenario, app, driver,
                             MicroParams{.bytes_per_proc = 64_MiB, .file_name = "s.h5"});
  // DRAM writes are client-CPU bound: aggregate rate ~= procs * 0.3 GB/s
  // within 25% (open/close overheads, stragglers).
  const double expected = procs * 0.3e9;
  EXPECT_GT(t.rate(), expected * 0.75);
  EXPECT_LT(t.rate(), expected * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleInvariants, ::testing::Values(64, 128, 256));

}  // namespace
}  // namespace uvs
