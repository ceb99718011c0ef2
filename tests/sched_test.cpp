// Tests for interference-aware vs CFS-like placement (§II-C, Fig. 4).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "src/hw/node.hpp"
#include "src/sched/node_scheduler.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"

namespace uvs::sched {
namespace {

struct Fixture {
  sim::Engine engine;
  hw::NodeParams params;
  hw::Node node{engine, 0, hw::NodeParams{}};

  NodeScheduler Make(PlacementPolicy policy) {
    return NodeScheduler(engine, node, policy, Rng(42));
  }
};

TEST(InterferenceAware, SpreadsProgramAcrossSockets) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 8; ++i) sched.AddProcess(/*program=*/1, /*is_server=*/false);
  EXPECT_EQ(sched.ProgramProcsOnSocket(1, 0), 4);
  EXPECT_EQ(sched.ProgramProcsOnSocket(1, 1), 4);
}

TEST(InterferenceAware, EachProgramSpreadIndependently) {
  // Fig. 4b: servers, app1 and app2 processes each spread over both sockets.
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 2; ++i) sched.AddProcess(0, true);    // servers
  for (int i = 0; i < 2; ++i) sched.AddProcess(1, false);   // app 1
  for (int i = 0; i < 2; ++i) sched.AddProcess(2, false);   // app 2
  for (int prog = 0; prog <= 2; ++prog) {
    EXPECT_EQ(sched.ProgramProcsOnSocket(prog, 0), 1) << "program " << prog;
    EXPECT_EQ(sched.ProgramProcsOnSocket(prog, 1), 1) << "program " << prog;
  }
}

TEST(InterferenceAware, NoStackingBelowCoreCount) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 32; ++i) sched.AddProcess(1, false);
  for (int c = 0; c < 32; ++c) EXPECT_EQ(sched.ProcsOnCore(c), 1);
  for (int i = 0; i < 32; ++i) EXPECT_DOUBLE_EQ(sched.CpuShare(i), 1.0);
}

TEST(InterferenceAware, RemainderGoesToLessLoadedSocket) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  // Program 1 has 1 proc on socket 0; program 2's odd proc should prefer
  // socket 1 (less loaded overall).
  sched.AddProcess(1, false);
  sched.AddProcess(2, false);
  EXPECT_EQ(sched.ProcsOnSocket(0) + sched.ProcsOnSocket(1), 2);
  EXPECT_EQ(sched.ProcsOnSocket(0), 1);
  EXPECT_EQ(sched.ProcsOnSocket(1), 1);
}

TEST(InterferenceAware, OversubscriptionUsesIdleServerCores) {
  // Fig. 4d: 2 servers + 32 clients => the last 2 clients land on the
  // server cores rather than stacking on client cores.
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  std::vector<int> servers;
  for (int i = 0; i < 2; ++i) servers.push_back(sched.AddProcess(0, true));
  std::vector<int> clients;
  for (int i = 0; i < 32; ++i) clients.push_back(sched.AddProcess(1, false));
  // Every core has at most 2 processes, and doubled cores host a server.
  int doubled = 0;
  for (int c = 0; c < 32; ++c) {
    ASSERT_LE(sched.ProcsOnCore(c), 2);
    if (sched.ProcsOnCore(c) == 2) ++doubled;
  }
  EXPECT_EQ(doubled, 2);
  for (int s : servers) EXPECT_EQ(sched.ProcsOnCore(sched.CoreOf(s)), 2);
}

TEST(InterferenceAware, FlushMigrationMovesClientsOffServerCores) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  std::vector<int> servers;
  for (int i = 0; i < 2; ++i) servers.push_back(sched.AddProcess(0, true));
  for (int i = 0; i < 32; ++i) sched.AddProcess(1, false);
  sched.BeginServerFlush();
  for (int s : servers) {
    EXPECT_EQ(sched.ProcsOnCore(sched.CoreOf(s)), 1)
        << "server core should be exclusive during flush";
    EXPECT_DOUBLE_EQ(sched.CpuShare(s), 1.0);
  }
  sched.EndServerFlush();
  int doubled = 0;
  for (int c = 0; c < 32; ++c)
    if (sched.ProcsOnCore(c) == 2) ++doubled;
  EXPECT_EQ(doubled, 2) << "clients should return to their home cores";
}

TEST(InterferenceAware, NestedFlushesRestoreClientsWhenTheLastEnds) {
  // Every tenant's flush brackets all nodes, so flushes overlap: clients
  // stay off the server cores until the last open flush ends.
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  std::vector<int> servers;
  for (int i = 0; i < 2; ++i) servers.push_back(sched.AddProcess(0, true));
  std::vector<int> clients;
  for (int i = 0; i < 32; ++i) clients.push_back(sched.AddProcess(1, false));
  std::vector<int> home;
  for (int c : clients) home.push_back(sched.CoreOf(c));
  auto servers_exclusive = [&] {
    for (int s : servers)
      if (sched.ProcsOnCore(sched.CoreOf(s)) != 1) return false;
    return true;
  };

  sched.BeginServerFlush();  // tenant A
  sched.BeginServerFlush();  // tenant B, while A still flushes
  ASSERT_TRUE(servers_exclusive());
  sched.EndServerFlush();  // A ends; B is still draining
  EXPECT_TRUE(sched.flush_in_progress());
  EXPECT_TRUE(servers_exclusive()) << "clients returned while a flush was still open";
  sched.BeginServerFlush();  // a third opens before B ends
  sched.EndServerFlush();
  EXPECT_TRUE(servers_exclusive());
  sched.EndServerFlush();  // the last one
  EXPECT_FALSE(sched.flush_in_progress());
  for (std::size_t i = 0; i < clients.size(); ++i)
    EXPECT_EQ(sched.CoreOf(clients[i]), home[i]) << "client " << i;
  // An unmatched End is ignored, and the next Begin migrates again.
  sched.EndServerFlush();
  EXPECT_FALSE(sched.flush_in_progress());
  sched.BeginServerFlush();
  EXPECT_TRUE(servers_exclusive());
  sched.EndServerFlush();
}

TEST(Cfs, PlacementIgnoresProgramsAndStacks) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kCfs);
  for (int i = 0; i < 34; ++i) sched.AddProcess(i < 2 ? 0 : 1, i < 2);
  // With 34 random placements on 32 cores, stacking is essentially
  // certain (probability of a perfect spread is ~0).
  int stacked_cores = 0;
  for (int c = 0; c < 32; ++c)
    if (sched.ProcsOnCore(c) >= 2) ++stacked_cores;
  EXPECT_GE(stacked_cores, 1);
}

TEST(CpuShare, SharedCorePaysContextSwitchPenalty) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 2; ++i) sched.AddProcess(0, true);
  std::vector<int> clients;
  for (int i = 0; i < 32; ++i) clients.push_back(sched.AddProcess(1, false));
  // Find a client sharing a core with a server.
  for (int c : clients) {
    if (sched.ProcsOnCore(sched.CoreOf(c)) == 2) {
      EXPECT_DOUBLE_EQ(sched.CpuShare(c), 0.85 / 2.0);
      return;
    }
  }
  FAIL() << "expected an oversubscribed client";
}

TEST(CpuShare, IdleNeighborDoesNotStealCpu) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  std::vector<int> servers{sched.AddProcess(0, true), sched.AddProcess(0, true)};
  std::vector<int> clients;
  for (int i = 0; i < 32; ++i) clients.push_back(sched.AddProcess(1, false));
  // Servers idle between flushes (the paper's checkpoint cycle).
  for (int s : servers) sched.SetBusy(s, false);
  for (int c : clients) EXPECT_DOUBLE_EQ(sched.CpuShare(c), 1.0);
  // Server wakes: its core mate drops to a shared slice again.
  for (int s : servers) sched.SetBusy(s, true);
  int shared = 0;
  for (int c : clients)
    if (sched.CpuShare(c) < 1.0) ++shared;
  EXPECT_EQ(shared, 2);
}

TEST(CpuShare, PoolCapacityTracksShare) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  int a = sched.AddProcess(1, false);
  const Bandwidth full = f.node.params().per_core_client_io_bw;
  EXPECT_DOUBLE_EQ(sched.cpu(a).capacity(), full);
}

TEST(Dram, ProcessUsesItsSocketPool) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  int a = sched.AddProcess(1, false);
  int b = sched.AddProcess(1, false);
  EXPECT_NE(&sched.dram(a), &sched.dram(b));  // spread across sockets
}

TEST(MultiProgram, OversubscriptionPlacesEveryProgram) {
  // Multi-tenant node: servers plus clients of three concurrent jobs, more
  // procs than cores. Nothing is dropped, every core stays bounded, and
  // each program keeps procs on both sockets.
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 2; ++i) sched.AddProcess(0, true);
  for (int prog = 1; prog <= 3; ++prog)
    for (int i = 0; i < 14; ++i) sched.AddProcess(prog, false);
  EXPECT_EQ(sched.process_count(), 44);
  int placed = 0;
  for (int c = 0; c < 32; ++c) {
    placed += sched.ProcsOnCore(c);
    EXPECT_LE(sched.ProcsOnCore(c), 2) << "core " << c;
  }
  EXPECT_EQ(placed, 44);
  for (int prog = 1; prog <= 3; ++prog) {
    EXPECT_GT(sched.ProgramProcsOnSocket(prog, 0), 0) << "program " << prog;
    EXPECT_GT(sched.ProgramProcsOnSocket(prog, 1), 0) << "program " << prog;
  }
}

TEST(MultiProgram, SetBusyChurnDuringFlushMigration) {
  // SetBusy toggles while clients are migrated off server cores must not
  // corrupt placement: counts stay conserved through the churn and the
  // original layout returns after EndServerFlush.
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  std::vector<int> servers;
  for (int i = 0; i < 2; ++i) servers.push_back(sched.AddProcess(0, true));
  std::vector<int> clients;
  for (int i = 0; i < 32; ++i) clients.push_back(sched.AddProcess(1, false));
  std::vector<int> home(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) home[i] = sched.CoreOf(clients[i]);

  sched.BeginServerFlush();
  ASSERT_TRUE(sched.flush_in_progress());
  // Checkpoint cycle: every client goes idle mid-flush, then wakes again.
  for (int c : clients) sched.SetBusy(c, false);
  for (int s : servers) EXPECT_DOUBLE_EQ(sched.CpuShare(s), 1.0);
  for (int c : clients) sched.SetBusy(c, true);
  int placed = 0;
  for (int c = 0; c < 32; ++c) placed += sched.ProcsOnCore(c);
  EXPECT_EQ(placed, 34) << "churn during migration lost a process";
  sched.EndServerFlush();

  for (std::size_t i = 0; i < clients.size(); ++i)
    EXPECT_EQ(sched.CoreOf(clients[i]), home[i]) << "client " << i;
  for (int c : clients) EXPECT_TRUE(sched.IsBusy(c));
}

TEST(CpuShare, ConservedAcrossJobsSharingACore) {
  // Two jobs' clients plus servers oversubscribe the node: on every core
  // the busy shares sum to exactly the context-switch-discounted budget —
  // csw(k) = 0.85 for k >= 2 sharers, 1.0 for an exclusive core — and
  // never exceed the core.
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 2; ++i) sched.AddProcess(0, true);
  for (int i = 0; i < 20; ++i) sched.AddProcess(1, false);
  for (int i = 0; i < 20; ++i) sched.AddProcess(2, false);
  for (int c = 0; c < 32; ++c) {
    const int busy = sched.BusyProcsOnCore(c);
    if (busy == 0) continue;
    double total = 0;
    for (int p = 0; p < sched.process_count(); ++p)
      if (sched.CoreOf(p) == c && sched.IsBusy(p)) total += sched.CpuShare(p);
    EXPECT_LE(total, 1.0 + 1e-12) << "core " << c;
    EXPECT_DOUBLE_EQ(total, busy > 1 ? 0.85 : 1.0) << "core " << c;
  }
}

// ---------------------------------------------------------------------------
// Retirement: a finished job's processes leave the node.

/// The client sharing a core with `server`.
int CoreMateOf(NodeScheduler& sched, int server) {
  for (int p = 0; p < sched.process_count(); ++p)
    if (p != server && sched.IsRegistered(p) && sched.CoreOf(p) == sched.CoreOf(server))
      return p;
  return -1;
}

TEST(Retirement, RemovingABusyNeighbourRaisesTheSurvivorsShare) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  const int server = sched.AddProcess(0, true);
  sched.AddProcess(0, true);
  for (int i = 0; i < 32; ++i) sched.AddProcess(1, false);
  const int mate = CoreMateOf(sched, server);
  ASSERT_GE(mate, 0);
  const Bandwidth full = f.node.params().per_core_client_io_bw;
  EXPECT_DOUBLE_EQ(sched.CpuShare(mate), 0.425);
  EXPECT_DOUBLE_EQ(sched.cpu(mate).capacity(), 0.425 * full);

  sched.RemoveProcess(server);  // busy when it leaves
  EXPECT_FALSE(sched.IsRegistered(server));
  EXPECT_DOUBLE_EQ(sched.CpuShare(mate), 1.0);
  EXPECT_DOUBLE_EQ(sched.cpu(mate).capacity(), full);
  EXPECT_EQ(sched.ProcsOnCore(sched.CoreOf(mate)), 1);
  EXPECT_EQ(sched.process_count(), 34) << "ids are never reused";
  EXPECT_EQ(sched.live_process_count(), 33);
}

TEST(Retirement, PlacementIgnoresRetiredProcesses) {
  // Servers and clients of a finished job leave: the next program is
  // placed exactly as on a fresh node, and no socket or core count
  // remembers the retired processes.
  Fixture f;
  auto used = f.Make(PlacementPolicy::kInterferenceAware);
  std::vector<int> gone;
  for (int i = 0; i < 2; ++i) gone.push_back(used.AddProcess(0, true));
  for (int i = 0; i < 40; ++i) gone.push_back(used.AddProcess(1, false));
  for (int p : gone) used.RemoveProcess(p);
  EXPECT_EQ(used.live_process_count(), 0);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(used.ProcsOnSocket(s), 0);
    EXPECT_EQ(used.ProgramProcsOnSocket(1, s), 0);
  }
  for (int c = 0; c < 32; ++c) EXPECT_EQ(used.ProcsOnCore(c), 0);

  auto fresh = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(used.CoreOf(used.AddProcess(2, true)), fresh.CoreOf(fresh.AddProcess(2, true)));
  }
  for (int i = 0; i < 34; ++i) {
    EXPECT_EQ(used.CoreOf(used.AddProcess(3, false)), fresh.CoreOf(fresh.AddProcess(3, false)))
        << "client " << i;
  }
}

TEST(Retirement, FlushMigrationIgnoresRetiredProcesses) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  const int kept = sched.AddProcess(0, true);
  const int retired = sched.AddProcess(0, true);
  for (int i = 0; i < 32; ++i) sched.AddProcess(1, false);
  const int kept_mate = CoreMateOf(sched, kept);
  const int retired_mate = CoreMateOf(sched, retired);
  ASSERT_GE(kept_mate, 0);
  ASSERT_GE(retired_mate, 0);
  const int retired_core = sched.CoreOf(retired);
  const int kept_mate_home = sched.CoreOf(kept_mate);
  sched.RemoveProcess(retired);
  // A retired client is never migrated or restored either.
  const int gone_client = sched.AddProcess(1, false);
  const int gone_home = sched.CoreOf(gone_client);
  sched.RemoveProcess(gone_client);

  sched.BeginServerFlush();
  EXPECT_EQ(sched.CoreOf(retired_mate), retired_core)
      << "a retired server's core is no server core";
  EXPECT_NE(sched.CoreOf(kept_mate), kept_mate_home);
  EXPECT_EQ(sched.ProcsOnCore(sched.CoreOf(kept)), 1);
  EXPECT_EQ(sched.CoreOf(gone_client), -1);
  sched.EndServerFlush();
  EXPECT_EQ(sched.CoreOf(kept_mate), kept_mate_home);
  EXPECT_EQ(sched.CoreOf(gone_client), -1);
  EXPECT_NE(gone_home, -1);
}

sim::Task Move(sim::FairSharePool& pool, Bytes bytes) { co_await pool.Transfer(bytes); }

TEST(Retirement, RejectsAProcessWithATransferInFlight) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  const int p = sched.AddProcess(1, false);
  f.engine.Spawn(Move(sched.cpu(p), 1_GiB));
  f.engine.RunUntil(1e-6);
  ASSERT_EQ(sched.cpu(p).active_flows(), 1u);
  EXPECT_THROW(sched.RemoveProcess(p), std::logic_error);
  EXPECT_TRUE(sched.IsRegistered(p)) << "a rejected removal changes nothing";
  EXPECT_EQ(sched.ProcsOnCore(sched.CoreOf(p)), 1);
  f.engine.Run();
  sched.RemoveProcess(p);
  EXPECT_FALSE(sched.IsRegistered(p));
}

TEST(Retirement, RetiredProcessesRejectStateChanges) {
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  const int p = sched.AddProcess(1, false);
  const int q = sched.AddProcess(1, false);
  sched.RemoveProcess(p);
  // A second removal, and any change of state, is a caller bug.
  EXPECT_THROW(sched.RemoveProcess(p), std::logic_error);
  EXPECT_THROW(sched.SetBusy(p, true), std::logic_error);
  EXPECT_THROW(sched.SetBusy(p, false), std::logic_error);
  EXPECT_THROW(sched.dram(p), std::logic_error);
  EXPECT_THROW(sched.RemoveProcess(-1), std::logic_error);
  EXPECT_THROW(sched.RemoveProcess(sched.process_count()), std::logic_error);
  // Its CPU pool was checked and freed.
  EXPECT_THROW(sched.cpu(p), std::logic_error);
  // What stays readable: an idle, coreless process.
  EXPECT_FALSE(sched.IsBusy(p));
  EXPECT_EQ(sched.CoreOf(p), -1);
  EXPECT_DOUBLE_EQ(sched.CpuShare(p), 1.0);
  EXPECT_FALSE(sched.IsServer(p));
  // The survivor is untouched.
  EXPECT_TRUE(sched.IsRegistered(q));
  sched.SetBusy(q, false);
  EXPECT_FALSE(sched.IsBusy(q));
  EXPECT_EQ(sched.live_process_count(), 1);
}

class OversubscriptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(OversubscriptionSweep, AllCoresBounded) {
  const int clients = GetParam();
  Fixture f;
  auto sched = f.Make(PlacementPolicy::kInterferenceAware);
  for (int i = 0; i < 2; ++i) sched.AddProcess(0, true);
  for (int i = 0; i < clients; ++i) sched.AddProcess(1, false);
  const int total = clients + 2;
  const int max_expected = (total + 31) / 32 + 1;
  int observed_max = 0;
  for (int c = 0; c < 32; ++c) observed_max = std::max(observed_max, sched.ProcsOnCore(c));
  EXPECT_LE(observed_max, max_expected);
  int placed = 0;
  for (int c = 0; c < 32; ++c) placed += sched.ProcsOnCore(c);
  EXPECT_EQ(placed, total);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, OversubscriptionSweep,
                         ::testing::Values(1, 16, 30, 32, 62, 64, 96));

}  // namespace
}  // namespace uvs::sched
