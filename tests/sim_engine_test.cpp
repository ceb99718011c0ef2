// Tests for the DES engine: clocking, ordering, processes, events, and the
// teardown of fan-out legs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/combinators.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/event.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace uvs::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.Now(), 0.0);
}

TEST(Engine, ScheduledCallbacksFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(2.0, [&] { order.push_back(2); });
  engine.Schedule(1.0, [&] { order.push_back(1); });
  engine.Schedule(3.0, [&] { order.push_back(3); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.Now(), 3.0);
}

TEST(Engine, SameTimeFiresInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) engine.Schedule(1.0, [&, i] { order.push_back(i); });
  engine.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.Schedule(1.0, [&] { ++fired; });
  engine.Schedule(5.0, [&] { ++fired; });
  bool more = engine.RunUntil(2.0);
  EXPECT_TRUE(more);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.Now(), 2.0);
  engine.Run();
  EXPECT_EQ(fired, 2);
}

Task Sleeper(Engine& engine, Time dt, std::vector<double>& wakeups) {
  co_await engine.Delay(dt);
  wakeups.push_back(engine.Now());
}

TEST(Engine, SpawnedProcessRunsAndCompletes) {
  Engine engine;
  std::vector<double> wakeups;
  Process p = engine.Spawn(Sleeper(engine, 1.5, wakeups), "sleeper");
  EXPECT_FALSE(p.finished());
  engine.Run();
  EXPECT_TRUE(p.finished());
  ASSERT_EQ(wakeups.size(), 1u);
  EXPECT_DOUBLE_EQ(wakeups[0], 1.5);
}

TEST(Engine, ManyProcessesInterleaveDeterministically) {
  Engine engine;
  std::vector<double> wakeups;
  for (int i = 0; i < 100; ++i)
    engine.Spawn(Sleeper(engine, static_cast<double>(100 - i), wakeups));
  engine.Run();
  ASSERT_EQ(wakeups.size(), 100u);
  for (std::size_t i = 1; i < wakeups.size(); ++i) EXPECT_LT(wakeups[i - 1], wakeups[i]);
}

Task Parent(Engine& engine, std::vector<std::string>& log) {
  log.push_back("parent-start");
  co_await [](Engine& e, std::vector<std::string>& l) -> Task {
    l.push_back("child-start");
    co_await e.Delay(1.0);
    l.push_back("child-end");
  }(engine, log);
  log.push_back("parent-end");
}

TEST(Task, AwaitedChildRunsToCompletionBeforeParentResumes) {
  Engine engine;
  std::vector<std::string> log;
  engine.Spawn(Parent(engine, log));
  engine.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start", "child-end",
                                           "parent-end"}));
  EXPECT_DOUBLE_EQ(engine.Now(), 1.0);
}

Task Thrower(Engine& engine) {
  co_await engine.Delay(0.5);
  throw std::runtime_error("boom");
}

Task CatchingParent(Engine& engine, bool& caught) {
  try {
    co_await Thrower(engine);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ChildExceptionRethrowsAtAwaitPoint) {
  Engine engine;
  bool caught = false;
  engine.Spawn(CatchingParent(engine, caught));
  engine.Run();
  EXPECT_TRUE(caught);
}

TEST(Task, TopLevelExceptionAbortsRun) {
  Engine engine;
  engine.Spawn(Thrower(engine));
  EXPECT_THROW(engine.Run(), std::runtime_error);
}

Task WaitForEvent(Engine& engine, Event& event, std::vector<double>& at) {
  co_await event.Wait();
  at.push_back(engine.Now());
}

TEST(Event, WakesAllWaitersAtTriggerTime) {
  Engine engine;
  Event event(engine);
  std::vector<double> at;
  for (int i = 0; i < 3; ++i) engine.Spawn(WaitForEvent(engine, event, at));
  engine.Schedule(4.0, [&] { event.Trigger(); });
  engine.Run();
  ASSERT_EQ(at.size(), 3u);
  for (double t : at) EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(Event, AwaitAfterTriggerCompletesImmediately) {
  Engine engine;
  Event event(engine);
  event.Trigger();
  std::vector<double> at;
  engine.Spawn(WaitForEvent(engine, event, at));
  engine.Run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_DOUBLE_EQ(at[0], 0.0);
}

TEST(Event, TriggerIsIdempotent) {
  Engine engine;
  Event event(engine);
  std::vector<double> at;
  engine.Spawn(WaitForEvent(engine, event, at));
  engine.Schedule(1.0, [&] {
    event.Trigger();
    event.Trigger();
  });
  engine.Run();
  EXPECT_EQ(at.size(), 1u);
}

TEST(Process, DoneEventJoins) {
  Engine engine;
  std::vector<double> wakeups;
  Process worker = engine.Spawn(Sleeper(engine, 2.0, wakeups));
  std::vector<double> join_time;
  engine.Spawn([](Engine& e, Process w, std::vector<double>& jt) -> Task {
    co_await w.Done().Wait();
    jt.push_back(e.Now());
  }(engine, worker, join_time));
  engine.Run();
  ASSERT_EQ(join_time.size(), 1u);
  EXPECT_DOUBLE_EQ(join_time[0], 2.0);
}

TEST(Engine, DelayZeroDoesNotSuspend) {
  Engine engine;
  std::vector<double> wakeups;
  engine.Spawn(Sleeper(engine, 0.0, wakeups));
  engine.Run();
  ASSERT_EQ(wakeups.size(), 1u);
  EXPECT_DOUBLE_EQ(wakeups[0], 0.0);
}

TEST(Engine, ProcessedEventCountAdvances) {
  Engine engine;
  engine.Schedule(1.0, [] {});
  engine.Schedule(2.0, [] {});
  engine.Run();
  EXPECT_EQ(engine.processed_events(), 2u);
}

TEST(Process, InvalidProcessNameIsEmpty) {
  Process process;
  EXPECT_FALSE(process.valid());
  EXPECT_EQ(process.name(), "");
}

TEST(Process, SpawnedProcessReportsItsName) {
  Engine engine;
  std::vector<double> wakeups;
  auto process = engine.Spawn(Sleeper(engine, 1.0, wakeups), "worker");
  EXPECT_EQ(process.name(), "worker");
  engine.Run();
}

TEST(Timer, CancellableTimerFiresWhenNotCancelled) {
  Engine engine;
  int fired = 0;
  TimerHandle timer = engine.ScheduleCancellable(2.0, [&fired] { ++fired; });
  EXPECT_TRUE(timer.pending());
  engine.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
  EXPECT_DOUBLE_EQ(engine.Now(), 2.0);
}

TEST(Timer, CancelRemovesEventBeforeItFires) {
  Engine engine;
  int fired = 0;
  TimerHandle timer = engine.ScheduleCancellable(2.0, [&fired] { ++fired; });
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_TRUE(timer.Cancel());
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.cancelled_events(), 1u);
  engine.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(engine.Now(), 0.0) << "cancelled event must not advance the clock";
}

TEST(Timer, DoubleCancelIsANoOp) {
  Engine engine;
  TimerHandle timer = engine.ScheduleCancellable(1.0, [] {});
  EXPECT_TRUE(timer.Cancel());
  EXPECT_FALSE(timer.Cancel());
  EXPECT_EQ(engine.cancelled_events(), 1u);
}

TEST(Timer, CancelAfterFireIsANoOp) {
  Engine engine;
  TimerHandle timer = engine.ScheduleCancellable(1.0, [] {});
  engine.Run();
  EXPECT_FALSE(timer.pending());
  EXPECT_FALSE(timer.Cancel());
  EXPECT_EQ(engine.cancelled_events(), 0u);
}

TEST(Timer, DefaultHandleIsInert) {
  TimerHandle timer;
  EXPECT_FALSE(timer.pending());
  EXPECT_FALSE(timer.Cancel());
}

TEST(Timer, StaleHandleDoesNotCancelSlotReuser) {
  Engine engine;
  int a_fired = 0, b_fired = 0;
  TimerHandle a = engine.ScheduleCancellable(1.0, [&a_fired] { ++a_fired; });
  engine.Run();  // `a` fires; its slot is freed and its generation bumped
  TimerHandle b = engine.ScheduleCancellable(2.0, [&b_fired] { ++b_fired; });
  EXPECT_FALSE(a.Cancel()) << "stale handle must not touch the recycled slot";
  EXPECT_TRUE(b.pending());
  engine.Run();
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 1);
}

TEST(Timer, CancellationPreservesOrderingOfSurvivors) {
  Engine engine;
  std::vector<int> order;
  std::vector<TimerHandle> timers;
  for (int i = 0; i < 16; ++i)
    timers.push_back(
        engine.ScheduleCancellable(static_cast<Time>(i), [&order, i] { order.push_back(i); }));
  for (int i = 1; i < 16; i += 2) timers[static_cast<std::size_t>(i)].Cancel();
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14}));
  EXPECT_EQ(engine.cancelled_events(), 8u);
}

TEST(Engine, BoxedCallbackRunsAndReleasesItsCapture) {
  // A shared_ptr capture is not trivially copyable, so this takes the
  // heap-boxed fallback path; the box must be freed after dispatch.
  Engine engine;
  auto payload = std::make_shared<int>(41);
  engine.Schedule(1.0, [payload] { ++*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  engine.Run();
  EXPECT_EQ(*payload, 42);
  EXPECT_EQ(payload.use_count(), 1) << "boxed callback leaked its capture";
}

TEST(Engine, UnrunBoxedCallbacksAreReleasedOnDestruction) {
  auto payload = std::make_shared<int>(0);
  {
    Engine engine;
    engine.Schedule(1.0, [payload] { ++*payload; });
    EXPECT_EQ(payload.use_count(), 2);
  }
  EXPECT_EQ(*payload, 0);
  EXPECT_EQ(payload.use_count(), 1) << "engine destructor leaked a queued box";
}

TEST(Engine, HeapPeakTracksDeepestQueue) {
  Engine engine;
  for (int i = 0; i < 10; ++i) engine.Schedule(static_cast<Time>(i), [] {});
  engine.Run();
  EXPECT_EQ(engine.heap_peak(), 10u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, FinishedFramesAreReclaimedIncrementally) {
  Engine engine;
  std::vector<double> wakeups;
  for (int i = 1; i <= 8; ++i) engine.Spawn(Sleeper(engine, static_cast<Time>(i), wakeups));
  EXPECT_EQ(engine.live_processes(), 8u);
  engine.RunUntil(4.5);  // four sleepers done, four still pending
  EXPECT_EQ(engine.frames_reclaimed(), 4u);
  EXPECT_EQ(engine.live_processes(), 4u);
  engine.Run();
  EXPECT_EQ(engine.frames_reclaimed(), 8u);
  EXPECT_EQ(engine.live_processes(), 0u);
  EXPECT_TRUE(engine.UnfinishedProcessNames().empty());
}

Task WaitForever(Engine& engine, Event& event) {
  (void)engine;
  co_await event.Wait();
}

TEST(Engine, StrandedProcessesAreReportedAndReclaimedSlotsAreNot) {
  Engine engine;
  Event never(engine);
  std::vector<double> wakeups;
  engine.Spawn(Sleeper(engine, 1.0, wakeups), "quick");
  engine.Spawn(WaitForever(engine, never), "stuck");
  engine.Run();
  const auto names = engine.UnfinishedProcessNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "stuck");
  EXPECT_EQ(engine.live_processes(), 1u);
}

Task SpawnChildren(Engine& engine, int generations, std::vector<double>& wakeups) {
  if (generations > 0)
    engine.Spawn(SpawnChildren(engine, generations - 1, wakeups));
  co_await engine.Delay(1.0);
  wakeups.push_back(engine.Now());
}

TEST(Engine, ProcessSlotsAreRecycled) {
  // Sequential waves of processes reuse the same slots instead of growing
  // the process table without bound.
  Engine engine;
  std::vector<double> wakeups;
  for (int wave = 0; wave < 50; ++wave) {
    engine.Spawn(Sleeper(engine, 1.0, wakeups));
    engine.Run();
  }
  EXPECT_EQ(engine.frames_reclaimed(), 50u);
  EXPECT_EQ(engine.live_processes(), 0u);
  engine.Spawn(SpawnChildren(engine, 3, wakeups));
  engine.Run();
  EXPECT_EQ(engine.frames_reclaimed(), 54u);
}

TEST(WhenAll, LegExceptionAbortsRunAtItsEvent) {
  // A leg that throws at t = 0.5 beside a leg that never returns, in either
  // order: Run throws from the rethrow queued at the leg's end (the fifth
  // event, after the spawn, two leg starts and the delay), before the
  // fan-out could resume, and the parent never gets past the join.
  for (bool thrower_first : {true, false}) {
    Engine engine;
    Event never(engine);
    bool joined = false;
    engine.Spawn([](Engine& e, Event& ev, bool first, bool& after) -> Task {
      std::vector<Task> legs;
      legs.push_back(Thrower(e));
      legs.push_back(WaitForever(e, ev));
      if (!first) std::swap(legs[0], legs[1]);
      co_await WhenAll(e, std::move(legs));
      after = true;
    }(engine, never, thrower_first, joined));
    EXPECT_THROW(engine.Run(), std::runtime_error) << "thrower first: " << thrower_first;
    EXPECT_DOUBLE_EQ(engine.Now(), 0.5);
    EXPECT_EQ(engine.processed_events(), 5u);
    EXPECT_FALSE(joined);
    engine.Run();  // whatever is still queued, the stranded sibling holds the join
    EXPECT_FALSE(joined);
    EXPECT_EQ(engine.live_processes(), 1u);
  }
}

Task HoldLock(Engine& engine, Mutex& mutex, Time hold, Time at = 0) {
  co_await engine.Delay(at);
  auto guard = co_await mutex.Lock();
  co_await engine.Delay(hold);
}

TEST(WhenAll, AbandonDestroysSuspendedLegs) {
  // Three legs suspended mid fan-out: one parked on a pool transfer, one
  // holding the mutex while two other processes wait for it, one in a
  // Delay. Abandon destroys the legs through their process's frame. The
  // waiter spawned first is destroyed while still queued; the other is
  // handed the lock by the holder's unwinding guard and passes it on.
  Engine engine;
  FairSharePool pool(engine, {.capacity = 1.0});
  Mutex mutex(engine);
  std::vector<double> wakeups;
  engine.Spawn(HoldLock(engine, mutex, 1.0, 1.0), "early-waiter");
  engine.Spawn([](Engine& e, FairSharePool& p, Mutex& m, std::vector<double>& at) -> Task {
    std::vector<Task> legs;
    legs.push_back(Transfer(p, 1000));
    legs.push_back(HoldLock(e, m, 100.0));
    legs.push_back(Sleeper(e, 50.0, at));
    co_await WhenAll(e, std::move(legs));
  }(engine, pool, mutex, wakeups), "fan-out");
  engine.Spawn(HoldLock(engine, mutex, 1.0, 2.0), "late-waiter");
  engine.RunUntil(10.0);
  ASSERT_TRUE(mutex.locked());
  ASSERT_EQ(mutex.waiters(), 2u);
  ASSERT_EQ(pool.active_flows(), 1u);
  EXPECT_EQ(engine.live_processes(), 3u) << "legs are not processes";

  engine.Abandon();
  EXPECT_EQ(engine.live_processes(), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_TRUE(engine.UnfinishedProcessNames().empty());
  EXPECT_FALSE(mutex.locked());
  EXPECT_EQ(mutex.waiters(), 0u);

  // The engine and the mutex serve a fresh run. (The pool still counts the
  // abandoned flow, so it is not reused.)
  ASSERT_TRUE(wakeups.empty());
  engine.Spawn([](Engine& e, Mutex& m, std::vector<double>& at) -> Task {
    std::vector<Task> legs;
    legs.push_back(HoldLock(e, m, 1.0));
    legs.push_back(HoldLock(e, m, 1.0));
    legs.push_back(Sleeper(e, 0.5, at));
    co_await WhenAll(e, std::move(legs));
    at.push_back(e.Now());
  }(engine, mutex, wakeups));
  engine.Run();
  EXPECT_EQ(wakeups, (std::vector<double>{10.5, 12.0}));
  EXPECT_FALSE(mutex.locked());
  EXPECT_EQ(engine.live_processes(), 0u);
}

}  // namespace
}  // namespace uvs::sim
