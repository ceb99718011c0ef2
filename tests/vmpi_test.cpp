// Tests for the virtual MPI runtime: rank placement, collectives, the
// ADIO driver registry, and the file layer plumbing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/vmpi/comm.hpp"
#include "src/vmpi/file.hpp"
#include "src/vmpi/runtime.hpp"

namespace uvs::vmpi {
namespace {

struct Fixture {
  sim::Engine engine;
  hw::ClusterParams params = hw::CoriPreset(64);
  hw::Cluster cluster{engine, params};
  Runtime runtime{cluster, sched::PlacementPolicy::kInterferenceAware};
};

TEST(Runtime, BlockMapsRanksToNodes) {
  Fixture f;
  auto prog = f.runtime.LaunchProgram("app", 64);
  EXPECT_EQ(f.runtime.ProgramSize(prog), 64);
  EXPECT_EQ(f.runtime.Rank(prog, 0).node, 0);
  EXPECT_EQ(f.runtime.Rank(prog, 31).node, 0);
  EXPECT_EQ(f.runtime.Rank(prog, 32).node, 1);
  EXPECT_EQ(f.runtime.Rank(prog, 63).node, 1);
}

TEST(Runtime, ServersSpreadAcrossNodes) {
  Fixture f;
  auto servers = f.runtime.LaunchProgram("srv", 4, /*is_server=*/true);
  EXPECT_EQ(f.runtime.Rank(servers, 0).node, 0);
  EXPECT_EQ(f.runtime.Rank(servers, 1).node, 0);
  EXPECT_EQ(f.runtime.Rank(servers, 2).node, 1);
  EXPECT_EQ(f.runtime.Rank(servers, 3).node, 1);
}

TEST(Runtime, EveryRankRegisteredWithItsScheduler) {
  Fixture f;
  f.runtime.LaunchProgram("app", 64);
  EXPECT_EQ(f.runtime.Scheduler(0).process_count(), 32);
  EXPECT_EQ(f.runtime.Scheduler(1).process_count(), 32);
}

TEST(Runtime, RetireProgramUnregistersEveryRank) {
  Fixture f;
  const auto servers = f.runtime.LaunchProgram("srv", 4, /*is_server=*/true);
  const auto app = f.runtime.LaunchProgram("app", 64);
  f.runtime.RetireProgram(app);
  for (int r = 0; r < 64; ++r) {
    const RankInfo& info = f.runtime.Rank(app, r);
    EXPECT_FALSE(f.runtime.Scheduler(info.node).IsRegistered(info.sched_proc)) << "rank " << r;
  }
  // Only the servers stay, and the retired program keeps its identity.
  EXPECT_EQ(f.runtime.Scheduler(0).live_process_count(), 2);
  EXPECT_EQ(f.runtime.Scheduler(1).live_process_count(), 2);
  EXPECT_EQ(f.runtime.Scheduler(0).process_count(), 34);
  EXPECT_EQ(f.runtime.ProgramSize(app), 64);
  EXPECT_EQ(f.runtime.ProgramName(app), "app");
  EXPECT_THROW(f.runtime.RankCpu(app, 0), std::logic_error);
  EXPECT_THROW(f.runtime.RetireProgram(app), std::logic_error);
  EXPECT_THROW(f.runtime.SetRankBusy(app, 0, false), std::logic_error);

  f.runtime.RetireProgram(servers);
  for (int n = 0; n < f.cluster.node_count(); ++n)
    EXPECT_EQ(f.runtime.Scheduler(n).live_process_count(), 0) << "node " << n;
}

TEST(Runtime, RankPoolsResolve) {
  Fixture f;
  auto prog = f.runtime.LaunchProgram("app", 4);
  EXPECT_GT(f.runtime.RankCpu(prog, 0).capacity(), 0.0);
  EXPECT_GT(f.runtime.RankDram(prog, 0).capacity(), 0.0);
}

TEST(Runtime, ProgramNamesRetained) {
  Fixture f;
  auto a = f.runtime.LaunchProgram("vpic", 4);
  auto b = f.runtime.LaunchProgram("bdcats", 4);
  EXPECT_EQ(f.runtime.ProgramName(a), "vpic");
  EXPECT_EQ(f.runtime.ProgramName(b), "bdcats");
  EXPECT_EQ(f.runtime.program_count(), 2);
}

sim::Task RankBarrier(Comm& comm, int rank, sim::Engine& engine, Time arrive,
                      std::vector<Time>& release) {
  co_await engine.Delay(arrive);
  co_await comm.Barrier(rank);
  release[static_cast<std::size_t>(rank)] = engine.Now();
}

TEST(Comm, BarrierReleasesEveryoneAfterLastArrival) {
  sim::Engine engine;
  Comm comm(engine, 4, 1e-6);
  std::vector<Time> release(4, -1);
  for (int r = 0; r < 4; ++r)
    engine.Spawn(RankBarrier(comm, r, engine, static_cast<Time>(r), release));
  engine.Run();
  for (Time t : release) EXPECT_GE(t, 3.0);  // last arrives at t=3
  EXPECT_EQ(comm.generation(), 1);
}

TEST(Comm, BarrierReusableAcrossGenerations) {
  sim::Engine engine;
  Comm comm(engine, 2, 0.0);
  std::vector<Time> order;
  for (int r = 0; r < 2; ++r) {
    engine.Spawn([](Comm& c, int rank, sim::Engine& e, std::vector<Time>& log) -> sim::Task {
      for (int round = 0; round < 3; ++round) {
        co_await e.Delay(rank == 0 ? 1.0 : 2.0);
        co_await c.Barrier(rank);
        if (rank == 0) log.push_back(e.Now());
      }
    }(comm, r, engine, order));
  }
  engine.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_DOUBLE_EQ(order[0], 2.0);
  EXPECT_DOUBLE_EQ(order[1], 4.0);
  EXPECT_DOUBLE_EQ(order[2], 6.0);
  EXPECT_EQ(comm.generation(), 3);
}

TEST(Comm, BarrierCostScalesLogarithmically) {
  sim::Engine engine;
  const Time latency = 1e-3;
  Comm comm(engine, 1024, latency);
  std::vector<Time> release(1024, -1);
  for (int r = 0; r < 1024; ++r) engine.Spawn(RankBarrier(comm, r, engine, 0.0, release));
  engine.Run();
  EXPECT_NEAR(release[0], 10 * latency, 1e-9);  // log2(1024) rounds
}

class NullDriver : public AdioDriver {
 public:
  const char* fs_type() const override { return "null"; }
  sim::Task Open(File&, int, obs::SpanRef) override { co_return; }
  sim::Task WriteAt(File&, int, Bytes, Bytes len, obs::SpanRef) override {
    written += len;
    co_return;
  }
  sim::Task ReadAt(File&, int, Bytes, Bytes, obs::SpanRef) override { co_return; }
  sim::Task Close(File&, int, obs::SpanRef) override { co_return; }
  Bytes written = 0;
};

TEST(DriverRegistry, RegisterAndResolve) {
  NullDriver driver;
  DriverRegistry registry;
  ASSERT_TRUE(registry.Register(driver).ok());
  EXPECT_FALSE(registry.Register(driver).ok()) << "duplicate fs type rejected";
  auto resolved = registry.Resolve("null");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, &driver);
  EXPECT_FALSE(registry.Resolve("gpfs").ok());
}

TEST(File, ForwardsToDriver) {
  Fixture f;
  auto prog = f.runtime.LaunchProgram("app", 2);
  NullDriver driver;
  File file(f.runtime, prog, FileOptions{"x", FileMode::kWriteOnly}, driver);
  f.engine.Spawn([](File& file_ref) -> sim::Task {
    co_await file_ref.Open(0);
    co_await file_ref.WriteAt(0, 0, 100);
    co_await file_ref.Close(0);
  }(file));
  f.engine.Run();
  EXPECT_EQ(driver.written, 100u);
}

TEST(File, DriverStateLifetime) {
  Fixture f;
  auto prog = f.runtime.LaunchProgram("app", 2);
  NullDriver driver;
  File file(f.runtime, prog, FileOptions{"x", FileMode::kWriteOnly}, driver);
  EXPECT_EQ(file.driver_state<int>(), nullptr);
  int& value = file.EmplaceDriverState<int>(41);
  value = 42;
  ASSERT_NE(file.driver_state<int>(), nullptr);
  EXPECT_EQ(*file.driver_state<int>(), 42);
}

TEST(File, DefaultWaitFlushCompletesImmediately) {
  Fixture f;
  auto prog = f.runtime.LaunchProgram("app", 1);
  NullDriver driver;
  File file(f.runtime, prog, FileOptions{"x", FileMode::kWriteOnly}, driver);
  bool done = false;
  f.engine.Spawn([](File& file_ref, bool& flag) -> sim::Task {
    co_await file_ref.driver().WaitFlush(file_ref);
    flag = true;
  }(file, done));
  f.engine.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace uvs::vmpi
