// google-benchmark microbenchmarks for the discrete-event kernel itself:
// event dispatch throughput, coroutine spawn/join, the fair-share pool
// under churn, and mutex hand-over. These bound how large a simulated
// machine the figure benches can afford.
#include <benchmark/benchmark.h>

#include <deque>

#include "src/sim/combinators.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/sync.hpp"

namespace uvs::sim {
namespace {

void BM_EngineDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    for (int i = 0; i < 1000; ++i) engine.Schedule(static_cast<Time>(i), [] {});
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineDispatch);

// Self-rescheduling callback chain: each dispatch schedules the next link,
// so the queue holds a constant `chains` events and every item is one
// push + one pop + one inline invoke — pure steady-state kernel cost.
struct ChainLink {
  Engine* engine;
  long* remaining;
  void operator()() const {
    if (--*remaining > 0) engine->Schedule(engine->Now() + 1.0, *this);
  }
};

void BM_EngineThroughput(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  const long events = 200000;
  for (auto _ : state) {
    Engine engine;
    long remaining = events;
    for (int i = 0; i < chains; ++i)
      engine.Schedule(1.0 + 1e-4 * i, ChainLink{&engine, &remaining});
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineThroughput)->Arg(64)->Arg(4096);

// Timer churn: a sliding window of `live` cancellable timers; each
// iteration truly cancels the earliest (an O(log n) root removal, the
// worst case) and arms a replacement.
void BM_TimerCancel(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  Engine engine;
  std::deque<TimerHandle> timers;
  Time at = 1.0;
  for (int i = 0; i < live; ++i)
    timers.push_back(engine.ScheduleCancellable(at += 1.0, [] {}));
  for (auto _ : state) {
    timers.front().Cancel();
    timers.pop_front();
    timers.push_back(engine.ScheduleCancellable(at += 1.0, [] {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerCancel)->Arg(64)->Arg(4096);

Task Sleeper(Engine& engine, Time dt) { co_await engine.Delay(dt); }

void BM_SpawnJoin(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    for (int i = 0; i < procs; ++i) engine.Spawn(Sleeper(engine, static_cast<Time>(i)));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_SpawnJoin)->Arg(100)->Arg(10000);

Task DoTransfer(FairSharePool& pool, Bytes bytes) { co_await pool.Transfer(bytes); }

void BM_FairShareChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    FairSharePool pool(engine, {.capacity = 1e9});
    for (int i = 0; i < flows; ++i)
      engine.Spawn(DoTransfer(pool, 1000 + static_cast<Bytes>(i) * 37));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairShareChurn)->Arg(64)->Arg(1024)->Arg(8192);

Task StaggeredTransfer(Engine& engine, FairSharePool& pool, Time at, Bytes bytes) {
  co_await engine.Delay(at);
  co_await pool.Transfer(bytes);
}

// Staggered arrivals: every arrival and departure lands while other flows
// are active, so each one reshapes the virtual-time schedule and replaces
// the pool's completion timer — the RescheduleTimer churn path.
void BM_FairShareStaggered(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    FairSharePool pool(engine, {.capacity = 1e9});
    for (int i = 0; i < flows; ++i)
      engine.Spawn(
          StaggeredTransfer(engine, pool, 1e-3 * i, 1000 + static_cast<Bytes>(i) * 37));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairShareStaggered)->Arg(64)->Arg(1024);

void BM_WhenAllFanout(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    std::vector<Task> tasks;
    tasks.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) tasks.push_back(Sleeper(engine, 1.0));
    engine.Spawn(WhenAll(engine, std::move(tasks)));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_WhenAllFanout)->Arg(1)->Arg(16)->Arg(256);

Task LockRounds(Mutex& mutex, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto guard = co_await mutex.Lock();
  }
}

// N waiters hand one mutex along: each releases with the others queued,
// so every release is a FIFO hand-over (one resume event), and the
// releaser queues again at the tail.
void BM_MutexHandover(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  constexpr int kRounds = 64;
  for (auto _ : state) {
    Engine engine;
    Mutex mutex(engine);
    for (int i = 0; i < waiters; ++i) engine.Spawn(LockRounds(mutex, kRounds));
    engine.Run();
  }
  state.SetItemsProcessed(state.iterations() * waiters * kRounds);
}
BENCHMARK(BM_MutexHandover)->Arg(2)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace uvs::sim

BENCHMARK_MAIN();
