#include "src/testkit/batch.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>

#include "src/sim/parallel_for.hpp"

namespace uvs::testkit {

namespace {

using Clock = std::chrono::steady_clock;

void Fill(SeedRun& run, RunOutcome outcome) {
  run.report = std::move(outcome.report);
  run.file_sizes = std::move(outcome.file_sizes);
  run.sim_time = outcome.sim_time;
  run.spans_dropped = outcome.spans_dropped;
  run.ok = run.report.ok();
  run.ran = true;
}

}  // namespace

BatchResult RunSeedBatch(std::uint64_t base_seed, std::uint64_t n, const BatchOptions& options) {
  const bool bounded = options.time_budget > 0;
  const Clock::time_point deadline =
      bounded ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(options.time_budget))
              : Clock::time_point::max();

  // Lowest failing seed seen so far: seeds above it are not worth starting,
  // since only the prefix up to the first failure is reported. Seeds are
  // claimed in ascending order, so the seeds the deadline leaves unrun are
  // the highest ones, and the seeds that ran are the reported prefix.
  std::atomic<std::uint64_t> first_fail{n};
  std::atomic<bool> deadline_hit{false};
  // One slot per seed up to the highest one started, made as seeds start:
  // a deque never moves a slot another worker is filling.
  std::mutex slots_mutex;
  std::deque<SeedRun> slots;
  sim::ParallelFor(static_cast<std::size_t>(n), options.workers, [&](std::size_t i) {
    if (i > first_fail.load(std::memory_order_acquire)) return;
    if (bounded && Clock::now() >= deadline) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return;
    }
    SeedRun* slot = nullptr;
    {
      std::lock_guard<std::mutex> lock(slots_mutex);
      while (slots.size() <= i) {
        const std::uint64_t seed = base_seed + slots.size();
        slots.emplace_back().seed = seed;
      }
      slot = &slots[i];
    }
    SeedRun& run = *slot;
    run.spec = SampleScenario(run.seed);
    Fill(run, RunScenario(run.spec, options.run));
    if (!run.ok) {
      // CAS-min: remember the lowest failing index.
      std::uint64_t seen = first_fail.load(std::memory_order_relaxed);
      while (i < seen &&
             !first_fail.compare_exchange_weak(seen, i, std::memory_order_acq_rel)) {
      }
    }
  });
  BatchResult result;
  result.runs.reserve(slots.size());
  for (SeedRun& run : slots) result.runs.push_back(std::move(run));
  result.deadline_hit = deadline_hit.load(std::memory_order_relaxed);
  return result;
}

}  // namespace uvs::testkit
