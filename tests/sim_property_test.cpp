// Property and stress tests for the simulation kernel under randomized
// workloads: work conservation of the fair-share pool, determinism of the
// event order, dynamic reconfiguration, and the fan-out join's event
// stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/combinators.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/sync.hpp"

namespace uvs::sim {
namespace {

Task TransferAt(Engine& engine, FairSharePool& pool, Time start, Bytes bytes,
                double* done_at) {
  co_await engine.Delay(start);
  co_await pool.Transfer(bytes);
  *done_at = engine.Now();
}

class FairShareFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairShareFuzz, WorkConservationUnderRandomArrivals) {
  Rng rng(GetParam());
  Engine engine;
  const double capacity = 1e6;
  FairSharePool pool(engine, {.capacity = capacity});
  const int flows = 200;
  std::vector<double> done(flows, -1);
  Bytes total = 0;
  double last_arrival = 0;
  for (int i = 0; i < flows; ++i) {
    const Time start = rng.NextDouble() * 2.0;
    const Bytes bytes = 1000 + rng.NextBelow(100000);
    total += bytes;
    last_arrival = std::max(last_arrival, start);
    engine.Spawn(TransferAt(engine, pool, start, bytes, &done[static_cast<std::size_t>(i)]));
  }
  engine.Run();
  double finish = 0;
  for (double d : done) {
    ASSERT_GE(d, 0.0);
    finish = std::max(finish, d);
  }
  // Lower bound: total work at full capacity. Upper bound: the pool can
  // idle only before the last arrival.
  EXPECT_GE(finish + 1e-9, static_cast<double>(total) / capacity);
  EXPECT_LE(finish, last_arrival + static_cast<double>(total) / capacity + 1e-9);
  EXPECT_EQ(pool.total_bytes(), total);
  EXPECT_EQ(pool.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairShareFuzz, ::testing::Values(11, 22, 33, 44, 55));

TEST(FairShareDynamic, EfficiencyChangesWithPopulation) {
  // eff(n) = 1/n makes aggregate throughput constant-per-flow: n flows of
  // b bytes then take exactly n*b/ (C/n) ... i.e. slower than ideal; the
  // pool must still complete everything exactly once.
  Engine engine;
  FairSharePool pool(engine, {.capacity = 1000.0,
                              .efficiency = [](std::size_t n) {
                                return 1.0 / static_cast<double>(n);
                              }});
  std::vector<double> done(4, -1);
  for (int i = 0; i < 4; ++i)
    engine.Spawn(TransferAt(engine, pool, 0.0, 1000, &done[static_cast<std::size_t>(i)]));
  engine.Run();
  // 4 flows, aggregate 1000/4: each gets 62.5 B/s until the population
  // drops; all equal-size flows finish together at t = 4000/250 = 16.
  for (double d : done) EXPECT_NEAR(d, 16.0, 1e-6);
}

TEST(FairShareDynamic, PerFlowCapChangeMidFlight) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 1000.0, .per_flow_cap = 100.0});
  double done = -1;
  engine.Spawn(TransferAt(engine, pool, 0.0, 1000, &done));
  engine.Schedule(5.0, [&] { pool.SetPerFlowCap(500.0); });
  engine.Run();
  // 500 bytes in the first 5 s (cap 100), remaining 500 at cap 500 => 1 s.
  EXPECT_NEAR(done, 6.0, 1e-6);
}

TEST(FairShareDynamic, ConservationUnderRandomCapacityChurn) {
  // The pool must deliver every byte exactly once no matter how often the
  // aggregate capacity is retuned mid-flight (the recovery paths do this
  // when fault windows degrade devices). Conservation bound:
  // total_bytes <= peak_capacity * busy_time, where busy_time <= finish.
  for (std::uint64_t seed : {7u, 19u, 101u}) {
    Rng rng(seed);
    Engine engine;
    FairSharePool pool(engine, {.capacity = 1e6});
    const int flows = 64;
    std::vector<double> done(flows, -1);
    Bytes total = 0;
    for (int i = 0; i < flows; ++i) {
      const Time start = rng.NextDouble();
      const Bytes bytes = 1000 + rng.NextBelow(50000);
      total += bytes;
      engine.Spawn(TransferAt(engine, pool, start, bytes, &done[static_cast<std::size_t>(i)]));
    }
    // Random capacity churn overlapping the transfers; always > 0.
    for (int i = 0; i < 32; ++i) {
      const Time at = rng.NextDouble() * 1.5;
      const double capacity = 1e4 + rng.NextDouble() * 2e6;
      engine.Schedule(at, [&pool, capacity] { pool.SetCapacity(capacity); });
    }
    engine.Run();
    double finish = 0;
    for (double d : done) {
      ASSERT_GE(d, 0.0) << "seed " << seed << ": a flow never completed";
      finish = std::max(finish, d);
    }
    EXPECT_EQ(pool.total_bytes(), total) << "seed " << seed;
    EXPECT_EQ(pool.active_flows(), 0u) << "seed " << seed;
    EXPECT_GE(finish * pool.peak_capacity() + 1e-9, static_cast<double>(total))
        << "seed " << seed << ": delivered more than peak capacity allows";
  }
}

TEST(CancellableTimer, CancelPreventsTheCallback) {
  Engine engine;
  bool fired = false;
  TimerHandle handle = engine.ScheduleCancellable(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.Cancel());
  EXPECT_FALSE(handle.pending());
  engine.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.cancelled_events(), 1u);
}

TEST(CancellableTimer, CancelAfterFireIsANoOp) {
  Engine engine;
  int fires = 0;
  TimerHandle handle = engine.ScheduleCancellable(1.0, [&] { ++fires; });
  engine.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.Cancel()) << "the event already fired";
  EXPECT_EQ(engine.cancelled_events(), 0u);
}

TEST(CancellableTimer, DoubleCancelIsANoOp) {
  Engine engine;
  TimerHandle handle = engine.ScheduleCancellable(1.0, [] {});
  TimerHandle copy = handle;
  EXPECT_TRUE(handle.Cancel());
  EXPECT_FALSE(handle.Cancel());
  EXPECT_FALSE(copy.Cancel()) << "copies share the pending event";
  engine.Run();
  EXPECT_EQ(engine.cancelled_events(), 1u);
}

TEST(CancellableTimer, StaleHandleCannotCancelARecycledSlot) {
  // Generation counting: after a slot is freed (its timer cancelled) and
  // reused by a newer timer, the stale handle must not kill the new timer.
  Engine engine;
  bool new_fired = false;
  TimerHandle stale = engine.ScheduleCancellable(1.0, [] {});
  ASSERT_TRUE(stale.Cancel());
  // The freed slot is recycled LIFO, so this timer lands in the same slot
  // with a bumped generation.
  TimerHandle fresh = engine.ScheduleCancellable(2.0, [&] { new_fired = true; });
  EXPECT_FALSE(stale.Cancel()) << "stale generation must not cancel the new timer";
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  engine.Run();
  EXPECT_TRUE(new_fired);
}

TEST(CancellableTimer, RandomizedCancellationIsExact) {
  // Property: over a random mix, exactly the un-cancelled callbacks fire,
  // and cancelled_events() counts exactly the successful Cancel() calls.
  Rng rng(4242);
  Engine engine;
  const int timers = 500;
  std::vector<TimerHandle> handles;
  std::vector<int> fired(timers, 0);
  handles.reserve(timers);
  for (int i = 0; i < timers; ++i) {
    const Time at = rng.NextDouble() * 10.0;
    handles.push_back(
        engine.ScheduleCancellable(at, [&fired, i] { ++fired[static_cast<std::size_t>(i)]; }));
  }
  std::vector<bool> cancelled(timers, false);
  std::uint64_t cancels = 0;
  for (int i = 0; i < timers; ++i) {
    if (rng.NextDouble() < 0.5) {
      cancelled[static_cast<std::size_t>(i)] = true;
      EXPECT_TRUE(handles[static_cast<std::size_t>(i)].Cancel());
      ++cancels;
    }
  }
  engine.Run();
  for (int i = 0; i < timers; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], cancelled[static_cast<std::size_t>(i)] ? 0 : 1)
        << "timer " << i;
    EXPECT_FALSE(handles[static_cast<std::size_t>(i)].Cancel()) << "fired or already cancelled";
  }
  EXPECT_EQ(engine.cancelled_events(), cancels);
}

TEST(EngineDeterminism, IdenticalRunsProduceIdenticalEventCounts) {
  auto run = [] {
    Engine engine;
    FairSharePool pool(engine, {.capacity = 12345.0});
    Rng rng(99);
    std::vector<double> done(50, -1);
    for (int i = 0; i < 50; ++i)
      engine.Spawn(TransferAt(engine, pool, rng.NextDouble(), 100 + rng.NextBelow(5000),
                              &done[static_cast<std::size_t>(i)]));
    engine.Run();
    return std::make_pair(engine.processed_events(), done);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(WhenAll, EmptyVectorCompletesImmediately) {
  Engine engine;
  bool done = false;
  engine.Spawn([](Engine& e, bool& flag) -> Task {
    co_await WhenAll(e, {});
    flag = true;
  }(engine, done));
  engine.Run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(engine.Now(), 0.0);
}

TEST(WhenAll, CompletionTimeIsMaxOfChildren) {
  Engine engine;
  double done_at = -1;
  engine.Spawn([](Engine& e, double& at) -> Task {
    std::vector<Task> tasks;
    for (Time dt : {1.0, 5.0, 3.0}) {
      tasks.push_back([](Engine& eng, Time d) -> Task { co_await eng.Delay(d); }(e, dt));
    }
    co_await WhenAll(e, std::move(tasks));
    at = e.Now();
  }(engine, done_at));
  engine.Run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

// The oracle for WhenAll: the join it replaced, which spawned every leg as
// a process and joined the processes' Done events in index order.
Task SpawnedJoin(Engine& engine, std::vector<Task> tasks) {
  std::vector<Process> procs;
  procs.reserve(tasks.size());
  for (auto& task : tasks) procs.push_back(engine.Spawn(std::move(task)));
  for (auto& proc : procs) co_await proc.Done().Wait();
}

using JoinFn = Task (*)(Engine&, std::vector<Task>);

/// One leg of a random fan-out tree.
struct LegSpec {
  enum Kind { kDelayZero, kDelay, kTransfer, kLocked, kFanOut } kind = kFanOut;
  int id = 0;
  Time dt = 0;                // kDelay, kLocked
  Bytes bytes = 0;            // kTransfer
  std::vector<LegSpec> legs;  // kFanOut
};

/// A fan-out of 0-6 legs at `depth`, nesting fan-outs down to depth 3.
/// Delays and transfers end on multiples of 0.25 s, so ties are common.
LegSpec RandomFanOut(Rng& rng, int depth, int& next_id) {
  LegSpec fan{.kind = LegSpec::kFanOut, .id = next_id++};
  const int width = static_cast<int>(rng.NextBelow(7));
  for (int i = 0; i < width; ++i) {
    const auto kind = static_cast<LegSpec::Kind>(rng.NextBelow(depth < 3 ? 5 : 4));
    if (kind == LegSpec::kFanOut) {
      fan.legs.push_back(RandomFanOut(rng, depth + 1, next_id));
      continue;
    }
    LegSpec leg{.kind = kind, .id = next_id++};
    leg.dt = 0.5 * static_cast<double>(1 + rng.NextBelow(3));
    leg.bytes = 250 * rng.NextBelow(4);  // 0-750 B through a 1000 B/s pool
    fan.legs.push_back(std::move(leg));
  }
  return fan;
}

/// One run of a tree: the engine, the pool and mutex its legs share, and
/// a log of (Now(), leg id, ended) at every leg start and end.
struct JoinWorld {
  explicit JoinWorld(JoinFn fn) : join(fn) {}
  JoinFn join;
  Engine engine;
  FairSharePool pool{engine, {.capacity = 1000.0}};
  Mutex mutex{engine};
  std::vector<std::tuple<Time, int, bool>> log;
};

Task RunLeg(JoinWorld& w, const LegSpec& leg) {
  w.log.emplace_back(w.engine.Now(), leg.id, false);
  switch (leg.kind) {
    case LegSpec::kDelayZero:
      co_await w.engine.Delay(0);
      break;
    case LegSpec::kDelay:
      co_await w.engine.Delay(leg.dt);
      break;
    case LegSpec::kTransfer:
      co_await w.pool.Transfer(leg.bytes);
      break;
    case LegSpec::kLocked: {
      auto guard = co_await w.mutex.Lock();
      co_await w.engine.Delay(leg.dt);
      break;
    }
    case LegSpec::kFanOut: {
      std::vector<Task> legs;
      for (const LegSpec& child : leg.legs) legs.push_back(RunLeg(w, child));
      co_await w.join(w.engine, std::move(legs));
      break;
    }
  }
  w.log.emplace_back(w.engine.Now(), leg.id, true);
}

/// A competing process that wakes every 0.5 s, at the legs' tie instants,
/// and takes the mutex or a slice of the pool.
Task Ticker(JoinWorld& w) {
  for (int tick = 0; tick < 8; ++tick) {
    co_await w.engine.Delay(0.5);
    w.log.emplace_back(w.engine.Now(), -1, false);
    if (tick % 2 == 0) {
      auto guard = co_await w.mutex.Lock();
    } else {
      co_await w.pool.Transfer(100);
    }
    w.log.emplace_back(w.engine.Now(), -1, true);
  }
}

struct JoinRun {
  std::vector<std::tuple<Time, int, bool>> log;
  std::uint64_t events = 0;
  Time end = 0;
};

JoinRun RunTree(const LegSpec& root, JoinFn join) {
  JoinWorld w(join);
  w.engine.Spawn(RunLeg(w, root), "tree");
  w.engine.Spawn(Ticker(w), "ticker");
  w.engine.Run();
  return {std::move(w.log), w.engine.processed_events(), w.engine.Now()};
}

TEST(WhenAll, MatchesSpawnedProcessJoinEventForEvent) {
  std::size_t legs = 0;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    Rng rng(seed);
    int next_id = 0;
    const LegSpec root = RandomFanOut(rng, 1, next_id);
    legs += static_cast<std::size_t>(next_id);
    const JoinRun want = RunTree(root, SpawnedJoin);
    const JoinRun got = RunTree(root, WhenAll);
    ASSERT_EQ(got.log, want.log) << "seed " << seed;
    ASSERT_EQ(got.events, want.events) << "seed " << seed;
    ASSERT_EQ(got.end, want.end) << "seed " << seed;
  }
  EXPECT_GT(legs, 1000u) << "the trees should not be trivial";
}

TEST(WhenAll, EmptyLegCompletesAtOnce) {
  // A default-constructed leg counts as finished: it takes no start event
  // and its siblings join as usual.
  Engine engine;
  std::vector<double> done_at;
  engine.Spawn([](Engine& e, std::vector<double>& at) -> Task {
    co_await WhenAll(e, std::vector<Task>(2));
    at.push_back(e.Now());
    std::vector<Task> legs(3);
    legs[1] = [](Engine& eng) -> Task { co_await eng.Delay(1.0); }(e);
    co_await WhenAll(e, std::move(legs));
    at.push_back(e.Now());
  }(engine, done_at));
  engine.Run();
  EXPECT_EQ(done_at, (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(engine.processed_events(), 4u);  // spawn, leg start, delay, wake-up
  EXPECT_EQ(engine.live_processes(), 0u);

  // A one-leg fan-out makes exactly the oracle's events, for a leg that
  // ends inside its first resume and for one that suspends.
  for (LegSpec::Kind kind : {LegSpec::kDelayZero, LegSpec::kDelay, LegSpec::kTransfer}) {
    const LegSpec root{.kind = LegSpec::kFanOut,
                       .legs = {LegSpec{.kind = kind, .id = 1, .dt = 0.5, .bytes = 250}}};
    const JoinRun want = RunTree(root, SpawnedJoin);
    const JoinRun got = RunTree(root, WhenAll);
    EXPECT_EQ(got.events, want.events) << "kind " << kind;
    EXPECT_EQ(got.log, want.log) << "kind " << kind;
  }
}

}  // namespace
}  // namespace uvs::sim
