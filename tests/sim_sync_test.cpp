// Tests for Mutex: exclusion, FIFO handover, RAII release, and a seeded
// property test against a std::deque reference FIFO, abandonment included.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace uvs::sim {
namespace {

Task CriticalSection(Engine& engine, Mutex& mutex, int id, Time hold,
                     std::vector<int>& order, int& inside) {
  auto guard = co_await mutex.Lock();
  EXPECT_EQ(inside, 0) << "mutual exclusion violated";
  ++inside;
  order.push_back(id);
  co_await engine.Delay(hold);
  --inside;
}

TEST(Mutex, ProvidesMutualExclusion) {
  Engine engine;
  Mutex mutex(engine);
  std::vector<int> order;
  int inside = 0;
  for (int i = 0; i < 5; ++i)
    engine.Spawn(CriticalSection(engine, mutex, i, 1.0, order, inside));
  engine.Run();
  EXPECT_EQ(order.size(), 5u);
  EXPECT_DOUBLE_EQ(engine.Now(), 5.0);  // fully serialized
  EXPECT_FALSE(mutex.locked());
}

TEST(Mutex, FifoHandover) {
  Engine engine;
  Mutex mutex(engine);
  std::vector<int> order;
  int inside = 0;
  // Stagger arrivals so the waiter queue order is deterministic.
  for (int i = 0; i < 4; ++i) {
    engine.Schedule(0.1 * i, [&, i] {
      engine.Spawn(CriticalSection(engine, mutex, i, 1.0, order, inside));
    });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mutex, UncontendedAcquireIsImmediate) {
  Engine engine;
  Mutex mutex(engine);
  double acquired_at = -1.0;
  engine.Spawn([](Engine& e, Mutex& m, double& at) -> Task {
    auto guard = co_await m.Lock();
    at = e.Now();
  }(engine, mutex, acquired_at));
  engine.Run();
  EXPECT_DOUBLE_EQ(acquired_at, 0.0);
}

/// Calls Lock() at `at` (at once when 0), holds the lock for `hold`, and
/// logs (id, acquisition time).
Task LockAt(Engine& engine, Mutex& mutex, int id, Time at, Time hold,
            std::vector<std::pair<int, Time>>& log) {
  if (at > 0) co_await engine.Delay(at);
  auto guard = co_await mutex.Lock();
  log.emplace_back(id, engine.Now());
  co_await engine.Delay(hold);
}

TEST(Mutex, NoBargingOnHandover) {
  Engine engine;
  Mutex mutex(engine);
  std::vector<std::pair<int, Time>> log;
  engine.Spawn(LockAt(engine, mutex, 0, 0.0, 1.0, log));  // holds [0, 1)
  engine.Spawn(LockAt(engine, mutex, 1, 0.5, 1.0, log));  // queues at 0.5
  // Wakes at 1 after the holder's release handed the lock to 1 and before
  // 1 resumed, then calls Lock(): it must queue behind 1.
  struct Seen {
    bool locked = false;
    std::size_t waiters = 99;
    std::size_t acquired = 99;
  } seen;
  engine.Spawn([](Engine& e, Mutex& m, Seen& at_one, std::vector<std::pair<int, Time>>& log)
                   -> Task {
    co_await e.Delay(1.0);
    at_one = {m.locked(), m.waiters(), log.size()};
    co_await LockAt(e, m, 2, 0.0, 1.0, log);
  }(engine, mutex, seen, log));
  engine.Run();
  EXPECT_TRUE(seen.locked) << "a hand-over never unlocks the mutex";
  EXPECT_EQ(seen.waiters, 0u) << "the handed waiter left the queue";
  EXPECT_EQ(seen.acquired, 1u) << "the handed waiter had not resumed yet";
  EXPECT_EQ(log, (std::vector<std::pair<int, Time>>{{0, 0.0}, {1, 1.0}, {2, 2.0}}));
  EXPECT_FALSE(mutex.locked());
  EXPECT_EQ(mutex.waiters(), 0u);
}

/// The reference a property run checks the mutex against: the processes
/// queued for it in a std::deque, and the one that owns it. Each process
/// reports its Lock() call, its acquisition, and the end of its frame
/// (finished or destroyed by Engine::Abandon).
struct ReferenceFifo {
  enum class State { kBefore, kQueued, kHanded, kHolding, kDone };

  ReferenceFifo(const Mutex& m, int processes)
      : mutex(&m), state(static_cast<std::size_t>(processes), State::kBefore) {}

  void Arrive(int id) {
    arrivals.push_back(id);
    if (owner < 0) {
      owner = id;
      At(id) = State::kHanded;
    } else {
      queue.push_back(id);
      At(id) = State::kQueued;
    }
  }

  void Acquired(int id) {
    EXPECT_EQ(owner, id) << "acquired out of FIFO order";
    EXPECT_EQ(At(id), State::kHanded);
    At(id) = State::kHolding;
    acquisitions.push_back(id);
  }

  /// The frame of `id` ends; its lock guard and awaiter are already gone.
  void Leave(int id) {
    switch (At(id)) {
      case State::kQueued: {
        const auto it = std::find(queue.begin(), queue.end(), id);
        const auto position = static_cast<std::size_t>(it - queue.begin());
        if (position == 0) {
          ++dequeued_at[0];  // head
        } else if (position + 1 == queue.size()) {
          ++dequeued_at[2];  // tail
        } else {
          ++dequeued_at[1];  // middle
        }
        queue.erase(it);
        break;
      }
      case State::kHanded:
        ++handed_destroyed;
        [[fallthrough]];
      case State::kHolding:
        owner = -1;
        if (!queue.empty()) {
          owner = queue.front();
          queue.pop_front();
          At(owner) = State::kHanded;
        }
        break;
      case State::kBefore:
      case State::kDone:
        break;
    }
    At(id) = State::kDone;
    Check();
  }

  void Check() const {
    EXPECT_EQ(mutex->waiters(), queue.size());
    EXPECT_EQ(mutex->locked(), owner >= 0);
  }

  State& At(int id) { return state[static_cast<std::size_t>(id)]; }

  const Mutex* mutex;
  std::vector<State> state;
  std::deque<int> queue;
  int owner = -1;
  std::vector<int> arrivals;      // Lock() call order
  std::vector<int> acquisitions;  // order in which owners resumed
  std::array<int, 3> dequeued_at{};  // queued waiters destroyed at head, middle, tail
  int handed_destroyed = 0;          // waiters destroyed after being handed the lock
};

/// Reports the end of its coroutine frame to the reference.
struct LeaveOnExit {
  ReferenceFifo* reference;
  int id;
  ~LeaveOnExit() { reference->Leave(id); }
};

Task Contender(Engine& engine, Mutex& mutex, ReferenceFifo& reference, int id, Time arrive,
               Time hold) {
  const LeaveOnExit leave{&reference, id};
  co_await engine.Delay(arrive);
  reference.Arrive(id);
  auto guard = co_await mutex.Lock();
  reference.Acquired(id);
  co_await engine.Delay(hold);
}

TEST(MutexProperty, MatchesAReferenceFifoThroughRunsAndAbandonment) {
  // Arrivals and holds on a coarse grid, so Lock() calls often tie with a
  // release; each run is cut at a random step and abandoned with its
  // waiters wherever they stand in the queue.
  std::array<int, 3> dequeued_at{};
  int handed_destroyed = 0;
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Engine engine;
    Mutex mutex(engine);
    const int processes = 2 + static_cast<int>(rng.NextBelow(10));
    ReferenceFifo reference(mutex, processes);
    for (int id = 0; id < processes; ++id) {
      const auto arrive = static_cast<Time>(rng.NextBelow(4));
      const auto hold = static_cast<Time>(rng.NextBelow(3));
      engine.Spawn(Contender(engine, mutex, reference, id, arrive, hold));
    }
    const std::uint64_t cut = rng.NextBelow(4 * static_cast<std::uint64_t>(processes));
    bool drained = false;
    for (std::uint64_t step = 0; step < cut && !drained; ++step) {
      drained = !engine.Step();
      reference.Check();
    }
    // Owners resume in the order they called Lock().
    ASSERT_LE(reference.acquisitions.size(), reference.arrivals.size());
    EXPECT_TRUE(std::equal(reference.acquisitions.begin(), reference.acquisitions.end(),
                           reference.arrivals.begin()));
    if (drained) {
      EXPECT_EQ(reference.acquisitions.size(), static_cast<std::size_t>(processes));
    }

    engine.Abandon();
    EXPECT_FALSE(mutex.locked());
    EXPECT_EQ(mutex.waiters(), 0u);
    for (std::size_t i = 0; i < dequeued_at.size(); ++i)
      dequeued_at[i] += reference.dequeued_at[i];
    handed_destroyed += reference.handed_destroyed;

    // The abandoned mutex serves a fresh run.
    std::vector<std::pair<int, Time>> log;
    engine.Spawn(LockAt(engine, mutex, 0, 0.0, 1.0, log));
    engine.Spawn(LockAt(engine, mutex, 1, 0.0, 1.0, log));
    engine.Run();
    EXPECT_EQ(log.size(), 2u);
    EXPECT_FALSE(mutex.locked());
  }
  // The seeds reach every abandonment case.
  EXPECT_GT(dequeued_at[0], 0) << "no waiter destroyed at the head";
  EXPECT_GT(dequeued_at[1], 0) << "no waiter destroyed in the middle";
  EXPECT_GT(dequeued_at[2], 0) << "no waiter destroyed at the tail";
  EXPECT_GT(handed_destroyed, 0) << "no waiter destroyed after being handed the lock";
}

TEST(LockGuard, MoveTransfersOwnership) {
  Engine engine;
  Mutex mutex(engine);
  engine.Spawn([](Engine& e, Mutex& m) -> Task {
    LockGuard outer;
    {
      auto inner = co_await m.Lock();
      outer = std::move(inner);
      EXPECT_FALSE(inner.owns_lock());
    }
    EXPECT_TRUE(m.locked());  // inner's destruction must not unlock
    EXPECT_TRUE(outer.owns_lock());
    co_await e.Delay(0.0);
  }(engine, mutex));
  engine.Run();
  EXPECT_FALSE(mutex.locked());
}

}  // namespace
}  // namespace uvs::sim
