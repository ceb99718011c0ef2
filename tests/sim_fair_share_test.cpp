// Tests for the fair-share (processor-sharing) bandwidth pool.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/units.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"

namespace uvs::sim {
namespace {

Task DoTransfer(Engine& engine, FairSharePool& pool, Bytes bytes, double* done_at) {
  co_await pool.Transfer(bytes);
  *done_at = engine.Now();
}

Task DelayedTransfer(Engine& engine, FairSharePool& pool, Time start, Bytes bytes,
                     double* done_at) {
  co_await engine.Delay(start);
  co_await pool.Transfer(bytes);
  *done_at = engine.Now();
}

TEST(FairShare, SingleFlowGetsFullCapacity) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});  // 100 B/s
  double done = -1;
  engine.Spawn(DoTransfer(engine, pool, 500, &done));
  engine.Run();
  EXPECT_NEAR(done, 5.0, 1e-6);
  EXPECT_EQ(pool.total_bytes(), 500u);
  EXPECT_EQ(pool.completed_transfers(), 1u);
}

TEST(FairShare, TwoEqualFlowsHalveEachOther) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});
  double a = -1, b = -1;
  engine.Spawn(DoTransfer(engine, pool, 500, &a));
  engine.Spawn(DoTransfer(engine, pool, 500, &b));
  engine.Run();
  // Both share 100 B/s: each runs at 50 B/s the whole time.
  EXPECT_NEAR(a, 10.0, 1e-6);
  EXPECT_NEAR(b, 10.0, 1e-6);
}

TEST(FairShare, ShortFlowFinishesFirstThenLongSpeedsUp) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});
  double small = -1, large = -1;
  engine.Spawn(DoTransfer(engine, pool, 100, &small));
  engine.Spawn(DoTransfer(engine, pool, 500, &large));
  engine.Run();
  // Small: 100 bytes at 50 B/s => 2 s. Large: 100 bytes by t=2 (50 B/s),
  // then 400 remaining at 100 B/s => 2 + 4 = 6 s.
  EXPECT_NEAR(small, 2.0, 1e-6);
  EXPECT_NEAR(large, 6.0, 1e-6);
}

TEST(FairShare, LateArrivalSlowsExistingFlow) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});
  double a = -1, b = -1;
  engine.Spawn(DoTransfer(engine, pool, 600, &a));
  engine.Spawn(DelayedTransfer(engine, pool, 2.0, 200, &b));
  engine.Run();
  // A alone 0..2s: 200 bytes done. Then A(400) and B(200) share 50 B/s each.
  // B finishes at 2+4=6. A has 200 left at t=6, full rate => 6+2=8.
  EXPECT_NEAR(b, 6.0, 1e-6);
  EXPECT_NEAR(a, 8.0, 1e-6);
}

TEST(FairShare, PerFlowCapLimitsLoneFlow) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0, .per_flow_cap = 25.0});
  double done = -1;
  engine.Spawn(DoTransfer(engine, pool, 100, &done));
  engine.Run();
  EXPECT_NEAR(done, 4.0, 1e-6);
}

TEST(FairShare, PerFlowCapIrrelevantWhenShareIsSmaller) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0, .per_flow_cap = 60.0});
  double a = -1, b = -1;
  engine.Spawn(DoTransfer(engine, pool, 500, &a));
  engine.Spawn(DoTransfer(engine, pool, 500, &b));
  engine.Run();
  EXPECT_NEAR(a, 10.0, 1e-6);  // share is 50 < cap 60
}

TEST(FairShare, EfficiencyHookDegradesAggregate) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0,
                              .efficiency = [](std::size_t n) { return n > 1 ? 0.5 : 1.0; }});
  double a = -1, b = -1;
  engine.Spawn(DoTransfer(engine, pool, 250, &a));
  engine.Spawn(DoTransfer(engine, pool, 250, &b));
  engine.Run();
  // Two flows: aggregate 50 B/s, 25 B/s each => 10 s.
  EXPECT_NEAR(a, 10.0, 1e-6);
  EXPECT_NEAR(b, 10.0, 1e-6);
}

TEST(FairShare, ZeroByteTransferCompletesImmediately) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});
  double done = -1;
  engine.Spawn(DoTransfer(engine, pool, 0, &done));
  engine.Run();
  EXPECT_NEAR(done, 0.0, 1e-12);
}

TEST(FairShare, ConservesWork) {
  // Total completion time of any workload >= total bytes / capacity, with
  // equality when the pool never idles.
  Engine engine;
  FairSharePool pool(engine, {.capacity = 1000.0});
  std::vector<double> done(20, -1);
  Bytes total = 0;
  for (int i = 0; i < 20; ++i) {
    Bytes b = static_cast<Bytes>(100 * (i + 1));
    total += b;
    engine.Spawn(DoTransfer(engine, pool, b, &done[static_cast<std::size_t>(i)]));
  }
  engine.Run();
  double last = 0;
  for (double d : done) last = std::max(last, d);
  EXPECT_NEAR(last, static_cast<double>(total) / 1000.0, 1e-6);
  EXPECT_EQ(pool.total_bytes(), total);
  EXPECT_NEAR(pool.busy_time(), last, 1e-9);
}

TEST(FairShare, ServiceBudgetIsTheCapacityEnvelope) {
  // 500 B at 100 B/s, an idle gap while the capacity halves, then 500 B at
  // 50 B/s: 15 busy seconds under a peak of 100 B/s.
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});
  double first = -1, second = -1;
  engine.Spawn(DoTransfer(engine, pool, 500, &first));
  engine.Schedule(7.0, [&] { pool.SetCapacity(50.0); });
  engine.Spawn(DelayedTransfer(engine, pool, 10.0, 500, &second));
  engine.Run();
  EXPECT_NEAR(second, 20.0, 1e-6);
  EXPECT_NEAR(pool.busy_time(), 15.0, 1e-9);
  EXPECT_NEAR(pool.ServiceBudget(), 100.0 * 15.0 + 0.5 * 2 + 1e-6 * 1000 + 1.0, 1e-9);
  EXPECT_TRUE(pool.Conserves());
}

TEST(FairShare, SetCapacityTakesEffectMidFlow) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});
  double done = -1;
  engine.Spawn(DoTransfer(engine, pool, 1000, &done));
  engine.Schedule(5.0, [&] { pool.SetCapacity(50.0); });
  engine.Run();
  // 500 bytes in first 5 s, remaining 500 at 50 B/s => 10 more seconds.
  EXPECT_NEAR(done, 15.0, 1e-6);
}

TEST(FairShare, ManyFlowsAggregateEqualsCapacity) {
  Engine engine;
  FairSharePool pool(engine, {.capacity = 1e6});
  constexpr int kFlows = 256;
  std::vector<double> done(kFlows, -1);
  for (int i = 0; i < kFlows; ++i)
    engine.Spawn(DoTransfer(engine, pool, 1000, &done[static_cast<std::size_t>(i)]));
  engine.Run();
  for (double d : done) EXPECT_NEAR(d, kFlows * 1000.0 / 1e6, 1e-6);
}

class FairShareParamTest : public ::testing::TestWithParam<int> {};

TEST_P(FairShareParamTest, EqualFlowsFinishTogetherAtExactTime) {
  const int n = GetParam();
  Engine engine;
  FairSharePool pool(engine, {.capacity = 1e4});
  std::vector<double> done(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i)
    engine.Spawn(DoTransfer(engine, pool, 5000, &done[static_cast<std::size_t>(i)]));
  engine.Run();
  const double expect = n * 5000.0 / 1e4;
  for (double d : done) EXPECT_NEAR(d, expect, expect * 1e-9 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FairShareParamTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 128, 512));

TEST(FairShare, TimerChurnDoesNotAccumulatePendingEvents) {
  // Every SetCapacity while a transfer is in flight supersedes the pool's
  // completion timer. The engine must truly remove the superseded timer,
  // not leave it to fire as a no-op: after 100 capacity changes exactly
  // one completion timer may remain in the queue.
  Engine engine;
  FairSharePool pool(engine, {.capacity = 100.0});
  double done = -1;
  engine.Spawn(DoTransfer(engine, pool, 100000, &done));
  for (int i = 1; i <= 100; ++i)
    engine.Schedule(0.01 * i, [&pool, i] { pool.SetCapacity(100.0 + i); });
  engine.RunUntil(1.05);  // all capacity changes applied, transfer ongoing
  EXPECT_EQ(pool.active_flows(), 1u);
  EXPECT_EQ(engine.pending_events(), 1u)
      << "superseded completion timers are rotting in the event queue";
  EXPECT_EQ(engine.cancelled_events(), 100u);
  engine.Run();
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(engine.pending_events(), 0u);
}

}  // namespace
}  // namespace uvs::sim
