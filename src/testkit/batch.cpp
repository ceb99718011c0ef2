#include "src/testkit/batch.hpp"

#include <atomic>
#include <chrono>

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
  BatchResult result;
  result.runs.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) result.runs[i].seed = base_seed + i;
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
  sim::ParallelFor(static_cast<std::size_t>(n), options.workers, [&](std::size_t i) {
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
