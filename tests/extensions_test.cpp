// Tests for the §V future-work extensions: resilience for volatile layers
// (BB replication + node-failure fallback) and proactive placement (the
// per-node read-promotion cache).
#include <gtest/gtest.h>

#include "src/h5lite/h5file.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::univistor {
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

Config BaseConfig() {
  Config config;
  config.chunk_size = 8_MiB;
  config.metadata_range_size = 4_MiB;
  config.flush_on_close = false;
  return config;
}

struct Fixture {
  explicit Fixture(Config config, ScenarioOptions options = SmallOptions())
      : scenario(options),
        system(scenario.runtime(), scenario.pfs(), scenario.workflow(), config),
        driver(system),
        app(scenario.runtime().LaunchProgram("app", options.procs)) {}

  Scenario scenario;
  UniviStor system;
  UniviStorDriver driver;
  vmpi::ProgramId app;
};

TEST(Resilience, ReplicationCopiesVolatileBytesToBb) {
  Config config = BaseConfig();
  config.replicate_volatile = true;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "r.h5"});
  EXPECT_EQ(f.system.replicated_bytes(), 16_MiB * 8);
  // The cache itself is unchanged — the replica is additional.
  const auto fid = f.system.OpenOrCreate("r.h5");
  EXPECT_EQ(f.system.CachedOn(fid, hw::Layer::kDram), 16_MiB * 8);
}

TEST(Resilience, NoReplicationByDefault) {
  Fixture f(BaseConfig());
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "r.h5"});
  EXPECT_EQ(f.system.replicated_bytes(), 0u);
}

TEST(Resilience, FailedNodeReadsServedFromReplica) {
  Config config = BaseConfig();
  config.replicate_volatile = true;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "f.h5"});
  f.system.FailNode(0);
  EXPECT_TRUE(f.system.NodeFailed(0));
  auto read = RunHdfMicro(
      f.scenario, f.app, f.driver,
      MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "f.h5"});
  EXPECT_GT(read.elapsed, 0.0);
  EXPECT_EQ(f.system.lost_reads(), 0) << "every read found the BB replica";
}

TEST(Resilience, UnreplicatedDataIsLostOnFailure) {
  Fixture f(BaseConfig());  // no replication, no flush
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "l.h5"});
  f.system.FailNode(0);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "l.h5"});
  EXPECT_GT(f.system.lost_reads(), 0);
}

// Derives the exact loss expectation the way an auditor would: every
// metadata record whose bytes sit on a volatile layer of a failed node and
// whose physical extent is covered by neither the BB-replica watermark nor
// the PFS durability watermark must be counted in lost_bytes(). Note this
// is per extent, not per file: a file can have a PFS copy (e.g. from a
// spill) and still lose the extents the copy never received.
Bytes ExpectedLoss(Fixture& f, storage::FileId fid) {
  const bool has_pfs = f.system.HasPfsCopy(fid);
  Bytes expected = 0;
  for (const auto& record :
       f.system.metadata().Query(fid, 0, f.system.LogicalSize(fid))) {
    const auto* chain = f.system.FindChain(fid, record.producer);
    if (chain == nullptr) continue;
    const auto decoded = chain->codec().Decode(record.va);
    if (!decoded.ok()) continue;
    if (decoded->layer != hw::Layer::kDram && decoded->layer != hw::Layer::kNodeLocalSsd)
      continue;
    const int node = f.scenario.runtime()
                         .Rank(ProducerProgram(record.producer), ProducerRank(record.producer))
                         .node;
    if (!f.system.NodeFailed(node)) continue;
    if (f.system.config().replicate_volatile &&
        f.system.ReplicaCovers(fid, record.producer, decoded->layer, decoded->physical,
                               record.len))
      continue;
    if (has_pfs && f.system.DurableCovers(fid, record.producer, decoded->layer,
                                          decoded->physical, record.len))
      continue;
    expected += record.len;
  }
  return expected;
}

TEST(Resilience, LostBytesAccountExactlyForTheFailedNode) {
  Fixture f(BaseConfig());  // no replication, no flush: DRAM data is volatile
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "exact.h5"});
  f.system.FailNode(0);
  const auto fid = f.system.OpenOrCreate("exact.h5");
  const Bytes expected = ExpectedLoss(f, fid);
  // 8 procs at 4 per node: ranks 0-3 live on node 0, so exactly half the
  // payload is unrecoverable.
  EXPECT_EQ(expected, 16_MiB * 4);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "exact.h5"});
  EXPECT_EQ(f.system.lost_bytes(), expected);
  EXPECT_EQ(f.system.lost_reads(), 4);
}

TEST(Resilience, FailureDuringInFlightFlushFallsBackToThePfsDestination) {
  Fixture f(BaseConfig());  // flush_on_close off: we drive the flush by hand
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "mid.h5"});
  const auto fid = f.system.OpenOrCreate("mid.h5");
  ASSERT_FALSE(f.system.HasPfsCopy(fid));

  // Start an asynchronous flush and fail the node while it is in flight:
  // the PFS destination already exists, but no flush has completed yet.
  f.system.TriggerFlush(fid);
  f.scenario.engine().RunUntil(f.scenario.engine().Now() + 1e-4);
  EXPECT_EQ(f.system.flush_stats().flushes, 0) << "flush must still be in flight";
  EXPECT_TRUE(f.system.HasPfsCopy(fid));
  f.system.FailNode(0);
  f.scenario.engine().Run();  // the flush drains despite the failed node
  EXPECT_EQ(f.system.flush_stats().flushes, 1);

  EXPECT_EQ(ExpectedLoss(f, fid), 0u);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "mid.h5"});
  EXPECT_EQ(f.system.lost_bytes(), 0u) << "reads fall back to the flush destination";
  EXPECT_EQ(f.system.lost_reads(), 0);
}

TEST(Resilience, FailureBeforeTheFlushStartsLosesTheVolatileBytes) {
  Fixture f(BaseConfig());
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "pre.h5"});
  const auto fid = f.system.OpenOrCreate("pre.h5");
  f.system.FailNode(0);  // the node dies before any flush is triggered
  EXPECT_EQ(ExpectedLoss(f, fid), 16_MiB * 4);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "pre.h5"});
  // Flushing after the loss cannot resurrect the failed node's bytes, but
  // the accounting must not double-count on a second read pass either.
  f.system.TriggerFlush(fid);
  f.scenario.engine().Run();
  const Bytes lost_after_first_pass = f.system.lost_bytes();
  EXPECT_EQ(lost_after_first_pass, 16_MiB * 4);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "pre.h5"});
  EXPECT_EQ(f.system.lost_bytes(), lost_after_first_pass)
      << "with a PFS copy present, re-reads are served, not lost again";
}

TEST(Resilience, SpilledAndCachedExtentsAccountIndependently) {
  // Regression: when a rank's data is part spilled to the PFS (tiny DRAM)
  // and part DRAM-cached, the mere existence of the spill's PFS file used
  // to make every failed-node read look servable, under-reporting
  // lost_bytes(). Coverage is per extent: the spilled tail survives, the
  // cached head does not.
  ScenarioOptions options = SmallOptions();
  // Per-rank DRAM log = 32 MiB / 4 sharers = one 8 MiB chunk, so each rank
  // caches half its 16 MiB and spills the rest; the BB's per-rank share is
  // below one chunk, so the spill lands on the PFS.
  options.cluster_params.node.dram_cache_capacity = 32_MiB;
  options.cluster_params.bb.capacity_per_bb_node = 8_MiB;
  Fixture f(BaseConfig(), options);  // no replication, no flush on close
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "spill.h5"});
  const auto fid = f.system.OpenOrCreate("spill.h5");
  ASSERT_TRUE(f.system.HasPfsCopy(fid)) << "the spill must have created the PFS destination";

  f.system.FailNode(0);
  const Bytes expected = ExpectedLoss(f, fid);
  EXPECT_GT(expected, 0u) << "DRAM-cached extents of the dead node are gone";
  EXPECT_LT(expected, 16_MiB * 4) << "spilled extents survive the node";

  // Read back every written extent and cross-check the system's accounting
  // against the auditor's record-by-record expectation.
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "spill.h5"});
  EXPECT_EQ(f.system.lost_bytes(), expected);
  EXPECT_GT(f.system.lost_reads(), 0);
}

TEST(Resilience, FlushedCopySavesUnreplicatedData) {
  Config config = BaseConfig();
  config.flush_on_close = true;  // PFS copy exists after close
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "p.h5"});
  f.system.FailNode(0);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "p.h5"});
  EXPECT_EQ(f.system.lost_reads(), 0) << "reads fall back to the flushed PFS copy";
}

TEST(Resilience, ReplicationCostsWriteBandwidthButNotLatency) {
  // Replication is asynchronous: the measured client write time should not
  // grow by anything close to the replica volume.
  auto run = [](bool replicate) {
    Config config = BaseConfig();
    config.replicate_volatile = replicate;
    Fixture f(config);
    return RunHdfMicro(f.scenario, f.app, f.driver,
                       MicroParams{.bytes_per_proc = 64_MiB, .file_name = "a.h5"})
        .io;
  };
  EXPECT_LT(run(true), run(false) * 1.5);
}

TEST(Promotion, RemoteReadsFillTheReadCache) {
  Config config = BaseConfig();
  config.promote_hot_reads = true;
  Fixture f(config);
  // Write on program "app"; read with a different program whose ranks sit
  // on the same nodes but query remote producers' data.
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "h.h5"});
  auto reader = f.scenario.runtime().LaunchProgram("analysis", 8);
  // Rank r of the reader reads producer (7-r)'s block: mostly remote.
  for (int r = 0; r < 8; ++r) {
    f.scenario.engine().Spawn([](UniviStor& system, vmpi::ProgramId prog, int rank,
                                 storage::FileId fid) -> sim::Task {
      const Bytes block = 16_MiB;
      co_await system.Read(prog, rank, fid, static_cast<Bytes>(7 - rank) * block, block);
    }(f.system, reader, r, f.system.OpenOrCreate("h.h5")));
  }
  f.scenario.engine().Run();
  EXPECT_GT(f.system.promoted_bytes(), 0u);
}

TEST(Promotion, SecondPassHitsTheCache) {
  Config config = BaseConfig();
  config.first_cache_layer = hw::Layer::kSharedBurstBuffer;  // reads come from BB
  config.promote_hot_reads = true;
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "pp.h5"});
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "pp.h5"});
  EXPECT_GT(f.system.promoted_bytes(), 0u);
  const int hits_before = f.system.read_cache_hits();
  auto bb_bytes_before = [&] {
    Bytes total = 0;
    auto& bb = f.scenario.cluster().burst_buffer();
    for (int n = 0; n < bb.size(); ++n) total += bb.pool(n).total_bytes();
    return total;
  };
  const Bytes before = bb_bytes_before();
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "pp.h5"});
  EXPECT_GT(f.system.read_cache_hits(), hits_before);
  EXPECT_EQ(bb_bytes_before(), before) << "cached pass avoids the BB round trip entirely";
}

TEST(Promotion, CacheCapacityBoundsPromotedBytes) {
  Config config = BaseConfig();
  config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
  config.promote_hot_reads = true;
  config.read_cache_capacity_per_node = 16_MiB;  // 2 chunks of 8 MiB
  Fixture f(config);
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 32_MiB, .file_name = "cap.h5"});
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 32_MiB, .read = true, .file_name = "cap.h5"});
  const Bytes per_node_cap = 16_MiB;
  EXPECT_LE(f.system.promoted_bytes(),
            per_node_cap * static_cast<Bytes>(f.scenario.cluster().node_count()));
}

TEST(Promotion, DisabledMeansNoCacheActivity) {
  Fixture f(BaseConfig());
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .file_name = "off.h5"});
  RunHdfMicro(f.scenario, f.app, f.driver,
              MicroParams{.bytes_per_proc = 16_MiB, .read = true, .file_name = "off.h5"});
  EXPECT_EQ(f.system.promoted_bytes(), 0u);
  EXPECT_EQ(f.system.read_cache_hits(), 0);
}

}  // namespace
}  // namespace uvs::univistor
