// Tests for sim::ParallelFor: every index runs exactly once, threads claim
// indices in ascending order, one worker is the calling thread, no request
// starts more threads than the hardware has, the lowest-index exception is
// rethrown after every index ran, and the seed-sweep determinism property
// (testkit::RunSeedBatch at -j 1/2/8 reports identical results).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/sim/parallel_for.hpp"
#include "src/testkit/batch.hpp"

namespace uvs {
namespace {

using sim::HardwareThreads;
using sim::ParallelFor;
using sim::ResolveWorkers;

TEST(ParallelFor, ResolvesWorkersWithinOneAndTheHardware) {
  const int hardware = HardwareThreads();
  EXPECT_GE(hardware, 1);
  EXPECT_EQ(ResolveWorkers(1000, 0), std::min(hardware, 1000));
  EXPECT_EQ(ResolveWorkers(1000, -3), 1);
  EXPECT_EQ(ResolveWorkers(1000, 1), 1);
  EXPECT_EQ(ResolveWorkers(1000, hardware + 1), hardware);
  EXPECT_EQ(ResolveWorkers(1, 8), 1);
  EXPECT_EQ(ResolveWorkers(0, 8), 1);
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  int calls = 0;
  for (int workers : {-1, 0, 1, 4}) ParallelFor(0, workers, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (int workers : {-2, 0, 1, 2, 8}) {
    std::vector<std::atomic<int>> hits(128);
    ParallelFor(hits.size(), workers, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
  }
}

TEST(ParallelFor, WritesResultsByIndex) {
  for (int workers : {1, 2, 8}) {
    std::vector<int> out(64, -1);
    // Stagger task durations so completion order differs from claim order
    // whenever more than one worker runs.
    ParallelFor(out.size(), workers, [&out](std::size_t i) {
      if (i % 7 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1 + static_cast<int>(i % 3)));
      out[i] = static_cast<int>(i * i);
    });
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], static_cast<int>(i * i)) << "workers=" << workers << " i=" << i;
  }
}

TEST(ParallelFor, ClaimsIndicesInAscendingOrder) {
  // Index 0 holds its worker until the others are done, so the other
  // worker runs every remaining index and must take them in order. The
  // wait is capped: on a one-thread host the calling thread runs all eight.
  constexpr std::size_t kTasks = 8;
  std::atomic<std::size_t> done{0};
  std::mutex order_mutex;
  std::vector<std::size_t> order;  // guarded by order_mutex
  ParallelFor(kTasks, 2, [&](std::size_t i) {
    if (i == 0) {
      const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (done.load() < kTasks - 1 && std::chrono::steady_clock::now() < cap)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    }
    ++done;
  });
  const std::vector<std::size_t> ascending{1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, ascending);
}

TEST(ParallelFor, OneWorkerIsTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  ParallelFor(ran.size(), 1, [&ran](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i], caller) << i;
}

TEST(ParallelFor, NeverStartsMoreThreadsThanTheHardwareHas) {
  const int hardware = HardwareThreads();
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;  // guarded by ids_mutex
  ParallelFor(256, 4 * hardware + 1, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard<std::mutex> lock(ids_mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), static_cast<std::size_t>(hardware));
}

TEST(ParallelFor, RethrowsTheLowestIndexExceptionAfterEveryIndexRan) {
  for (int workers : {1, 4}) {
    std::atomic<int> completed{0};
    try {
      ParallelFor(16, workers, [&completed](std::size_t i) {
        if (i == 11) throw std::runtime_error("boom 11");
        if (i == 3) throw std::runtime_error("boom 3");
        ++completed;
      });
      ADD_FAILURE() << "expected ParallelFor to rethrow at workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 3") << "workers=" << workers;
    }
    // Every non-throwing index still ran: the fan-out settles before the
    // rethrow instead of abandoning the rest.
    EXPECT_EQ(completed.load(), 14) << "workers=" << workers;
  }
}

// --- the determinism property the whole design hangs on -------------------

TEST(ParallelForProperty, SeedBatchIsIdenticalAtAnyWorkerCount) {
  constexpr std::uint64_t kSeeds = 6;
  testkit::BatchOptions serial;
  serial.workers = 1;
  const testkit::BatchResult golden = testkit::RunSeedBatch(100, kSeeds, serial);
  ASSERT_EQ(golden.ran_prefix(), kSeeds) << "reference sweep should be failure-free";

  for (int workers : {2, 8}) {
    testkit::BatchOptions fan = serial;
    fan.workers = workers;
    const testkit::BatchResult got = testkit::RunSeedBatch(100, kSeeds, fan);
    ASSERT_EQ(got.runs.size(), golden.runs.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < got.runs.size(); ++i) {
      const testkit::SeedRun& a = golden.runs[i];
      const testkit::SeedRun& b = got.runs[i];
      EXPECT_EQ(a.seed, b.seed);
      EXPECT_EQ(a.ran, b.ran) << "workers=" << workers << " seed=" << a.seed;
      EXPECT_EQ(a.ok, b.ok) << "workers=" << workers << " seed=" << a.seed;
      EXPECT_EQ(a.spec.ToString(), b.spec.ToString())
          << "workers=" << workers << " seed=" << a.seed;
      EXPECT_EQ(a.sim_time, b.sim_time) << "workers=" << workers << " seed=" << a.seed;
      EXPECT_EQ(a.file_sizes, b.file_sizes) << "workers=" << workers << " seed=" << a.seed;
    }
  }
}

// A budget that runs out before the sweep reaches most seeds leaves no
// slot for them: the result holds only the seeds up to the last started.
TEST(ParallelForProperty, BudgetedSeedBatchHoldsOnlyTheSeedsItReached) {
  constexpr std::uint64_t kSeeds = 1'000'000;
  for (int workers : {1, 2}) {
    testkit::BatchOptions options;
    options.workers = workers;
    options.time_budget = 1e-6;
    const testkit::BatchResult sweep = testkit::RunSeedBatch(40, kSeeds, options);
    EXPECT_TRUE(sweep.deadline_hit) << "workers=" << workers;
    EXPECT_LT(sweep.runs.size(), 1000u) << "workers=" << workers;
    for (std::size_t i = 0; i < sweep.runs.size(); ++i)
      EXPECT_EQ(sweep.runs[i].seed, 40 + i) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace uvs
