// Tests for the hardware models: topology building, network hose model,
// and the device array behind both the burst buffer and the OSTs.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/hw/cluster.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/engine.hpp"

namespace uvs::hw {
namespace {

TEST(CoriPreset, ScalesNodesWithProcesses) {
  EXPECT_EQ(CoriPreset(64).nodes, 2);
  EXPECT_EQ(CoriPreset(8192).nodes, 256);
  EXPECT_EQ(CoriPreset(100).nodes, 4);  // rounds up
  EXPECT_EQ(CoriPreset(1).nodes, 1);
}

TEST(CoriPreset, BurstBufferNodesClamped) {
  EXPECT_EQ(CoriPreset(64).bb.bb_nodes, 2);     // floor of 2
  EXPECT_EQ(CoriPreset(8192).bb.bb_nodes, 86);  // 256/2 clamped
  EXPECT_EQ(CoriPreset(4096).bb.bb_nodes, 64);   // 128/2
}

TEST(Cluster, BuildsTopologyFromParams) {
  sim::Engine engine;
  ClusterParams params = CoriPreset(128);
  Cluster cluster(engine, params);
  EXPECT_EQ(cluster.node_count(), 4);
  EXPECT_EQ(cluster.node(0).cores(), 32);
  EXPECT_EQ(cluster.node(0).sockets(), 2);
  EXPECT_EQ(cluster.burst_buffer().size(), 2);
  EXPECT_EQ(cluster.pfs().size(), 248);
}

TEST(Node, SocketOfCoreSplitsContiguously) {
  sim::Engine engine;
  Node node(engine, 0, NodeParams{});
  EXPECT_EQ(node.SocketOfCore(0), 0);
  EXPECT_EQ(node.SocketOfCore(15), 0);
  EXPECT_EQ(node.SocketOfCore(16), 1);
  EXPECT_EQ(node.SocketOfCore(31), 1);
}

TEST(LayerName, AllLayersNamed) {
  EXPECT_STREQ(LayerName(Layer::kDram), "DRAM");
  EXPECT_STREQ(LayerName(Layer::kNodeLocalSsd), "NodeSSD");
  EXPECT_STREQ(LayerName(Layer::kSharedBurstBuffer), "BB");
  EXPECT_STREQ(LayerName(Layer::kPfs), "PFS");
}

sim::Task TimedTransfer(Network& net, int src, int dst, Bytes bytes, double* done_at,
                        sim::Engine& engine) {
  co_await net.Transfer(src, dst, bytes);
  *done_at = engine.Now();
}

TEST(Network, TransferBoundByNicBandwidth) {
  sim::Engine engine;
  ClusterParams params = CoriPreset(64);
  Cluster cluster(engine, params);
  double done = -1;
  // 10 GB over a 10 GB/s NIC => ~1 s (plus tiny latency).
  engine.Spawn(TimedTransfer(cluster.network(), 0, 1, 10'000'000'000ull, &done, engine));
  engine.Run();
  EXPECT_NEAR(done, 1.0, 0.01);
}

TEST(Network, IntraNodeTransferIsFree) {
  sim::Engine engine;
  Cluster cluster(engine, CoriPreset(64));
  double done = -1;
  engine.Spawn(TimedTransfer(cluster.network(), 0, 0, 1_GiB, &done, engine));
  engine.Run();
  EXPECT_NEAR(done, 0.0, 1e-9);
}

TEST(Network, ReceiverNicIsTheBottleneckForFanIn) {
  sim::Engine engine;
  Cluster cluster(engine, CoriPreset(128));
  // Three senders target node 0; its rx pool serializes the aggregate.
  std::vector<double> done(3, -1);
  for (int s = 1; s <= 3; ++s)
    engine.Spawn(
        TimedTransfer(cluster.network(), s, 0, 10'000'000'000ull, &done[s - 1], engine));
  engine.Run();
  for (double d : done) EXPECT_NEAR(d, 3.0, 0.05);  // 30 GB over 10 GB/s rx
}

sim::Task TimedAccess(DeviceArray& array, int i, Bytes bytes, double inflation,
                      double* done_at, sim::Engine& engine) {
  co_await array.Access(i, bytes, inflation);
  *done_at = engine.Now();
}

TEST(BurstBuffer, AccessChargesPoolWithInflation) {
  sim::Engine engine;
  ClusterParams params = CoriPreset(64);
  params.bb.bw_per_bb_node = 1.0_GBps;
  params.bb.latency = 0.0;
  Cluster cluster(engine, params);
  double plain = -1, inflated = -1;
  engine.Spawn(TimedAccess(cluster.burst_buffer(), 0, 1'000'000'000ull, 1.0, &plain, engine));
  engine.Run();
  sim::Engine engine2;
  Cluster cluster2(engine2, params);
  engine2.Spawn(
      TimedAccess(cluster2.burst_buffer(), 0, 1'000'000'000ull, 2.0, &inflated, engine2));
  engine2.Run();
  EXPECT_NEAR(plain, 1.0, 1e-6);
  EXPECT_NEAR(inflated, 2.0, 1e-6);
}

TEST(BurstBuffer, TotalCapacitySumsNodes) {
  sim::Engine engine;
  ClusterParams params = CoriPreset(64);
  Cluster cluster(engine, params);
  EXPECT_EQ(cluster.burst_buffer().total_capacity(),
            params.bb.capacity_per_bb_node * static_cast<Bytes>(params.bb.bb_nodes));
}

TEST(PfsDevice, IndependentOstPools) {
  sim::Engine engine;
  ClusterParams params = CoriPreset(64);
  params.pfs.bw_per_ost = 1.0_GBps;
  params.pfs.latency = 0.0;
  Cluster cluster(engine, params);
  double a = -1, b = -1;
  engine.Spawn([](Cluster& c, double* at, sim::Engine& e) -> sim::Task {
    co_await c.pfs().Access(0, 1'000'000'000ull);
    *at = e.Now();
  }(cluster, &a, engine));
  engine.Spawn([](Cluster& c, double* at, sim::Engine& e) -> sim::Task {
    co_await c.pfs().Access(1, 1'000'000'000ull);
    *at = e.Now();
  }(cluster, &b, engine));
  engine.Run();
  // Different OSTs do not share bandwidth.
  EXPECT_NEAR(a, 1.0, 1e-6);
  EXPECT_NEAR(b, 1.0, 1e-6);
}

// The burst buffer and the OSTs are one device model; the params struct an
// array is built from only picks the names golden traces and reports pin.
TEST(DeviceArray, BothKindsShareOneModelUnderTheirOwnNames) {
  struct Kind {
    std::string prefix;  // pool names and hw.<prefix>.* counters
    const char* access_span;
    const char* degrade_span;
    obs::Category cat;
    obs::Track track;  // of device 1
    DeviceArray& (*array)(Cluster&);
  };
  const Kind kinds[] = {
      {"bb", "bb.access", "bb.degraded", obs::Category::kBb, obs::Track::BbNode(1),
       [](Cluster& c) -> DeviceArray& { return c.burst_buffer(); }},
      {"ost", "ost.access", "ost.degraded", obs::Category::kPfs, obs::Track::Ost(1),
       [](Cluster& c) -> DeviceArray& { return c.pfs(); }},
  };
  ClusterParams params = CoriPreset(64);
  params.bb.bw_per_bb_node = params.pfs.bw_per_ost = 1.0_GBps;
  params.bb.latency = params.pfs.latency = 0.25;
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.prefix);
    obs::Recorder recorder;
    recorder.Install();
    {
      sim::Engine engine;
      Cluster cluster(engine, params);
      DeviceArray& array = kind.array(cluster);
      EXPECT_EQ(array.pool(1).name(), kind.prefix + "1");
      EXPECT_EQ(array.latency(), 0.25);
      EXPECT_EQ(array.SoloTime(1, 1'000'000'000ull),
                array.latency() + array.pool(1).SoloTime(1'000'000'000ull));

      // Latency, then twice the bytes at full bandwidth.
      double inflated = -1;
      engine.Spawn(TimedAccess(array, 1, 1'000'000'000ull, 2.0, &inflated, engine));
      engine.Run();
      EXPECT_NEAR(inflated, 2.25, 1e-6);

      // A half-bandwidth window: latency, then 1 GB at 0.5 GB/s.
      array.Degrade(1, 0.5);
      double degraded = -1;
      engine.Spawn(TimedAccess(array, 1, 1'000'000'000ull, 1.0, &degraded, engine));
      engine.Run();
      array.Restore(1);
      EXPECT_NEAR(degraded, 4.5, 1e-6);
      EXPECT_NEAR(array.degraded_seconds(), 2.25, 1e-6);
      EXPECT_EQ(array.degraded_seconds(1), array.degraded_seconds());
      EXPECT_EQ(array.degraded_seconds(0), 0.0);
      EXPECT_EQ(array.degrade_windows(1), 1);
      EXPECT_EQ(array.degrade_windows(0), 0);
    }
    recorder.Uninstall();

    int accesses = 0, windows = 0;
    recorder.ForEachSpan([&](obs::Recorder::SpanId, const obs::Recorder::SpanEvent& span) {
      EXPECT_STREQ(recorder.category(span), "hw");
      EXPECT_EQ(recorder.track(span), kind.track);
      const std::string_view name = recorder.name(span);
      if (name == kind.access_span) {
        ++accesses;
        EXPECT_EQ(span.cat, kind.cat);
        EXPECT_EQ(span.bytes, 1'000'000'000ull);
      } else if (name == kind.degrade_span) {
        ++windows;
        EXPECT_EQ(span.cat, obs::Category::kDegraded);
        EXPECT_NEAR(span.start, 2.25, 1e-6);
        EXPECT_NEAR(span.end, 4.5, 1e-6);
      } else {
        ADD_FAILURE() << "unexpected span " << name;
      }
    });
    EXPECT_EQ(accesses, 2);
    EXPECT_EQ(windows, 1);
    obs::MetricsRegistry& metrics = recorder.metrics();
    EXPECT_EQ(metrics.GetCounter("hw." + kind.prefix + ".accesses").value(), 2u);
    EXPECT_EQ(metrics.GetCounter("hw." + kind.prefix + ".bytes").value(), 2'000'000'000u);
    EXPECT_EQ(metrics.GetCounter("hw." + kind.prefix + ".degrade_windows").value(), 1u);
  }
}

}  // namespace
}  // namespace uvs::hw
