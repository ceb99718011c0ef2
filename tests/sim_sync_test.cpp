// Tests for Mutex: exclusion, FIFO handover, RAII release.
#include <gtest/gtest.h>

#include <vector>

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
