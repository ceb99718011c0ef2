// End-to-end tests of the UniviStor system through the MPI-IO driver.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/h5lite/h5file.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::univistor {
namespace {

using workload::MicroParams;
using workload::RunHdfMicro;
using workload::Scenario;
using workload::ScenarioOptions;

/// A small fast cluster so tests run in microseconds of wall time.
ScenarioOptions SmallOptions(int procs = 8) {
  ScenarioOptions options;
  options.procs = procs;
  options.cluster_params = hw::CoriPreset(procs, /*procs_per_node=*/4);
  options.cluster_params.node.cores = 8;
  options.cluster_params.node.dram_cache_capacity = 2_GiB;
  return options;
}

Config SmallConfig() {
  Config config;
  config.chunk_size = 8_MiB;
  config.metadata_range_size = 4_MiB;
  return config;
}

struct Fixture {
  explicit Fixture(ScenarioOptions options = SmallOptions(), Config config = SmallConfig())
      : scenario(options),
        system(scenario.runtime(), scenario.pfs(), scenario.workflow(), config),
        driver(system),
        app(scenario.runtime().LaunchProgram("app", options.procs)) {}

  Scenario scenario;
  UniviStor system;
  UniviStorDriver driver;
  vmpi::ProgramId app;
};

TEST(Producer, EncodingRoundTrips) {
  const ProducerId id = MakeProducer(3, 12345);
  EXPECT_EQ(ProducerProgram(id), 3);
  EXPECT_EQ(ProducerRank(id), 12345);
}

TEST(UniviStorSystem, ServersLaunchedOnEveryNode) {
  Fixture f;
  EXPECT_EQ(f.system.total_servers(), f.scenario.cluster().node_count() * 2);
}

TEST(UniviStorSystem, WriteCachesInDram) {
  Fixture f;
  auto timing = RunHdfMicro(f.scenario, f.app, f.driver,
                            MicroParams{.bytes_per_proc = 16_MiB, .file_name = "a.h5"});
  EXPECT_GT(timing.elapsed, 0.0);
  const auto fid = f.system.OpenOrCreate("a.h5");
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kDram),
            16_MiB * 8 + uvs::h5lite::H5File::kHeaderBytes * 0);  // data only
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer), 0u);
}

TEST(UniviStorSystem, OverflowSpillsToBurstBuffer) {
  auto options = SmallOptions();
  options.cluster_params.node.dram_cache_capacity = 64_MiB;  // 16 MiB per rank (4/node)
  Fixture f(options);
  auto timing = RunHdfMicro(f.scenario, f.app, f.driver,
                            MicroParams{.bytes_per_proc = 48_MiB, .file_name = "big.h5"});
  (void)timing;
  const auto fid = f.system.OpenOrCreate("big.h5");
  EXPECT_GT(f.system.CachedOn(fid, hw::Layer::kDram), 0u);
  EXPECT_GT(f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer), 0u);
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kDram) +
                f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer),
            48_MiB * 8);
}

TEST(UniviStorSystem, BbOnlyModeSkipsDram) {
  Config config = SmallConfig();
  config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
  Fixture f(SmallOptions(), config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "bb.h5"});
  const auto fid = f.system.OpenOrCreate("bb.h5");
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kDram), 0u);
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer), 16_MiB * 8);
}

TEST(UniviStorSystem, CloseTriggersFlushToPfs) {
  Fixture f;
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "fl.h5"});
  EXPECT_EQ(f.system.flush_stats().flushes, 1);
  EXPECT_EQ(f.system.flush_stats().bytes_flushed, 16_MiB * 8);
  EXPECT_GT(f.system.flush_stats().last_flush_duration, 0.0);
  // The flush created the logical file on the PFS.
  EXPECT_TRUE(f.scenario.pfs().Lookup("fl.h5").ok());
}

TEST(UniviStorSystem, FlushDisabledLeavesPfsEmpty) {
  Config config = SmallConfig();
  config.flush_on_close = false;
  Fixture f(SmallOptions(), config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "nf.h5"});
  EXPECT_EQ(f.system.flush_stats().flushes, 0);
  EXPECT_FALSE(f.scenario.pfs().Lookup("nf.h5").ok());
}

TEST(UniviStorSystem, ReadAfterWriteCompletes) {
  Fixture f;
  auto write = RunHdfMicro(f.scenario, f.app, f.driver,
                           MicroParams{.bytes_per_proc = 16_MiB, .file_name = "rw.h5"});
  auto read = RunHdfMicro(
      f.scenario, f.app, f.driver,
      MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "rw.h5"});
  EXPECT_GT(write.elapsed, 0.0);
  EXPECT_GT(read.elapsed, 0.0);
  // Reading cached local DRAM data is faster than writing it (no metadata
  // insert RPCs on the hot path, same copy cost).
  EXPECT_LT(read.io, write.io * 1.5);
}

TEST(UniviStorSystem, LocationAwareReadBeatsServerHop) {
  auto run = [](bool location_aware) {
    Config config = SmallConfig();
    config.location_aware_reads = location_aware;
    Fixture f(SmallOptions(), config);
    RunHdfMicro(f.scenario, f.app, f.driver,
                MicroParams{.bytes_per_proc = 32_MiB, .file_name = "la.h5"});
    auto read = RunHdfMicro(
        f.scenario, f.app, f.driver,
        MicroParams{.bytes_per_proc = 32_MiB, .read = true, .file_name = "la.h5"});
    return read.io;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(UniviStorSystem, CollectiveOpenCloseScalesBetter) {
  auto run = [](bool coc) {
    Config config = SmallConfig();
    config.collective_open_close = coc;
    Fixture f(SmallOptions(32), config);
    auto timing = RunHdfMicro(f.scenario, f.app, f.driver,
                              MicroParams{.bytes_per_proc = 1_MiB, .file_name = "coc.h5"});
    return timing.open + timing.close;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(UniviStorSystem, LogicalSizeTracksWrites) {
  Fixture f;
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 4_MiB, .file_name = "sz.h5"});
  const auto fid = f.system.OpenOrCreate("sz.h5");
  EXPECT_EQ(f.system.LogicalSize(fid), uvs::h5lite::H5File::kHeaderBytes + 4_MiB * 8);
}

TEST(UniviStorSystem, DirectDiskModeBypassesCache) {
  Config config = SmallConfig();
  config.first_cache_layer = hw::Layer::kPfs;
  config.flush_on_close = false;
  Fixture f(SmallOptions(), config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 8_MiB, .file_name = "disk.h5"});
  const auto fid = f.system.OpenOrCreate("disk.h5");
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kDram), 0u);
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer), 0u);
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kPfs), 8_MiB * 8);
}

// --- the per-file producer table ---------------------------------------

struct Put {
  vmpi::ProgramId program;
  int rank;
  Bytes offset;
  Bytes len;
};

/// Writes `puts` one after another, then runs the engine dry.
void WriteInOrder(Fixture& f, storage::FileId fid, std::vector<Put> puts) {
  f.scenario.engine().Spawn(
      [](UniviStor& system, storage::FileId file, std::vector<Put> writes) -> sim::Task {
        for (const Put& put : writes)
          co_await system.Write(put.program, put.rank, file, put.offset, put.len);
      }(f.system, fid, std::move(puts)));
  f.scenario.engine().Run();
}

// Two programs write one file, their first writes out of (program, rank)
// order: every lookup, sum and watermark sees each producer's own slot.
TEST(ProducerTable, TwoProgramsWritingOutOfOrder) {
  Config config = SmallConfig();
  config.flush_on_close = false;
  Fixture f(SmallOptions(), config);
  vmpi::Runtime& runtime = f.scenario.runtime();
  const vmpi::ProgramId second = runtime.LaunchProgram("second", 4);
  const storage::FileId fid = f.system.OpenOrCreate("shared.h5");
  const std::vector<std::pair<vmpi::ProgramId, int>> writers = {
      {second, 3}, {f.app, 5}, {second, 0}, {f.app, 2}, {f.app, 0}};
  Bytes offset = 0;
  auto round = [&] {
    std::vector<Put> puts;
    for (const auto& [program, rank] : writers) {
      puts.push_back({program, rank, offset, 4_MiB});
      offset += 4_MiB;
    }
    return puts;
  };
  WriteInOrder(f, fid, round());

  for (const auto& [program, rank] : writers) {
    const placement::DhpWriterChain* chain = f.system.FindChain(fid, MakeProducer(program, rank));
    ASSERT_NE(chain, nullptr) << "program " << program << " rank " << rank;
    EXPECT_EQ(chain->key().producer, MakeProducer(program, rank));
    EXPECT_EQ(chain->PlacedOn(hw::Layer::kDram), 4_MiB);
  }
  // Absent producers: ranks that never wrote, ranks past their program, a
  // program that never wrote the file, and a file nobody opened.
  for (const ProducerId absent :
       {MakeProducer(f.app, 1), MakeProducer(second, 2), MakeProducer(f.app, 8),
        MakeProducer(f.app, -1), MakeProducer(f.system.server_program(), 0)}) {
    EXPECT_EQ(f.system.FindChain(fid, absent), nullptr) << "producer " << absent;
    EXPECT_FALSE(f.system.DurableCovers(fid, absent, hw::Layer::kDram, 0, 1));
  }
  EXPECT_EQ(f.system.FindChain(fid + 1, MakeProducer(f.app, 0)), nullptr);
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kDram), 4_MiB * writers.size());
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kSharedBurstBuffer), 0u);
  EXPECT_EQ(f.system.CachedOn(fid + 1, hw::Layer::kDram), 0u);

  // No replica landed and no flush ran: nothing is covered.
  const ProducerId first = MakeProducer(second, 3);
  EXPECT_FALSE(f.system.ReplicaCovers(fid, first, hw::Layer::kDram, 0, 1));
  EXPECT_FALSE(f.system.DurableCovers(fid, first, hw::Layer::kDram, 0, 1));

  f.system.TriggerFlush(fid);
  f.scenario.engine().Run();
  ASSERT_EQ(f.system.flush_stats().flushes, 1);
  for (const auto& [program, rank] : writers) {
    const ProducerId producer = MakeProducer(program, rank);
    EXPECT_TRUE(f.system.DurableCovers(fid, producer, hw::Layer::kDram, 0, 4_MiB));
    EXPECT_FALSE(f.system.DurableCovers(fid, producer, hw::Layer::kDram, 0, 4_MiB + 1));
    EXPECT_FALSE(f.system.ReplicaCovers(fid, producer, hw::Layer::kDram, 0, 1))
        << "nothing is replicated";
  }
  EXPECT_FALSE(f.system.DurableCovers(fid, MakeProducer(f.app, 1), hw::Layer::kDram, 0, 1))
      << "a flush covers only the producers that wrote";

  // A second round lands after the flush; then the first writer's node
  // fails. Its producers lose exactly their unflushed round.
  WriteInOrder(f, fid, round());
  const int dead = runtime.Rank(second, 3).node;
  Bytes expected_lost = 0;
  for (const auto& [program, rank] : writers)
    if (runtime.Rank(program, rank).node == dead) expected_lost += 4_MiB;
  ASSERT_GT(expected_lost, 0u);
  ASSERT_LT(expected_lost, 4_MiB * writers.size());
  f.system.FailNode(dead);
  int reader = 0;
  while (runtime.Rank(f.app, reader).node == dead) ++reader;
  f.scenario.engine().Spawn(f.system.Read(f.app, reader, fid, 0, offset));
  f.scenario.engine().Run();
  EXPECT_EQ(f.system.lost_bytes(), expected_lost);
}

// Replica copies of one producer's extents can land out of order; the
// watermark waits for the gap and then covers everything.
TEST(ProducerTable, ReplicasLandingOutOfOrderAdvanceTheWatermark) {
  Config config = SmallConfig();
  config.flush_on_close = false;
  config.replicate_volatile = true;
  Fixture f(SmallOptions(), config);
  const storage::FileId fid = f.system.OpenOrCreate("replica.h5");
  // The small second extent's copy finishes before the large first one's.
  WriteInOrder(f, fid, {{f.app, 1, 0, 64_MiB}, {f.app, 1, 64_MiB, 1_MiB}});
  const ProducerId producer = MakeProducer(f.app, 1);
  EXPECT_EQ(f.system.replicated_bytes(), 65_MiB);
  EXPECT_TRUE(f.system.ReplicaCovers(fid, producer, hw::Layer::kDram, 0, 65_MiB));
  EXPECT_FALSE(f.system.ReplicaCovers(fid, producer, hw::Layer::kDram, 0, 65_MiB + 1));
  EXPECT_FALSE(f.system.ReplicaCovers(fid, MakeProducer(f.app, 0), hw::Layer::kDram, 0, 1));
}

}  // namespace
}  // namespace uvs::univistor
