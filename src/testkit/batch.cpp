#include "src/testkit/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "src/sim/worker_pool.hpp"

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
  BatchResult result;
  result.runs.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) result.runs[i].seed = base_seed + i;
  const bool bounded = options.time_budget > 0;
  const Clock::time_point deadline =
      bounded ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(options.time_budget))
              : Clock::time_point::max();

  const int requested =
      options.workers == 0 ? sim::WorkerPool::HardwareThreads() : options.workers;
  if (requested <= 1 || n <= 1) {
    // Classic serial sweep: nothing beyond a failure or the deadline is
    // ever sampled.
    for (std::uint64_t i = 0; i < n; ++i) {
      if (bounded && Clock::now() >= deadline) {
        result.deadline_hit = true;
        break;
      }
      SeedRun& run = result.runs[i];
      run.spec = SampleScenario(run.seed);
      Fill(run, RunScenario(run.spec, options.run));
      if (!run.ok) break;
    }
    return result;
  }

  // Lowest failing seed seen so far; seeds above it are not worth starting
  // (their results would never be reported) but seeds below it must all
  // run, which dispatch order guarantees: a worker claiming seed i has
  // seen every seed < i dispatched already.
  std::atomic<std::uint64_t> first_fail{n};
  std::atomic<bool> deadline_hit{false};
  sim::WorkerPool pool(std::min<std::uint64_t>(static_cast<std::uint64_t>(requested), n));
  sim::ParallelFor(pool, static_cast<std::size_t>(n), [&](std::size_t i) {
    if (i > first_fail.load(std::memory_order_acquire)) return;
    if (bounded && Clock::now() >= deadline) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return;
    }
    SeedRun& run = result.runs[i];
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
  result.deadline_hit = deadline_hit.load(std::memory_order_relaxed);
  return result;
}

}  // namespace uvs::testkit
