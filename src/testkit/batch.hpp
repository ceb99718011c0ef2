// Parallel seed sweeps: fan sequential-seed scenario runs across threads
// with sim::ParallelFor, with deterministic result identity.
//
// Every RunScenario call is a self-contained simulation (its own engine,
// cluster, RNG stream), so a sweep over seeds is embarrassingly parallel;
// the obs:: recorders are thread-locally bound, so runs on worker threads
// observe nothing and perturb nothing. Determinism contract: results come
// back in seed order, and the *reported prefix* — every seed up to and
// including the first (lowest) failing one — is always fully evaluated, so
// `-j N` produces byte-identical uvfuzz output to `-j 1` for any N. Seeds
// are claimed in ascending order, so at one worker nothing beyond the
// first failure is sampled; at more, seeds beyond it may or may not have
// run (workers already past them finish their seed), and consumers must
// not read past first_failure().
//
// The wall-clock budget is one shared deadline for the whole sweep: every
// worker checks it before starting a seed, so `-j 8` gets the same wall
// time as `-j 1`, not eight times more.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/testkit/runner.hpp"
#include "src/testkit/scenario_spec.hpp"

namespace uvs::testkit {

struct BatchOptions {
  RunOptions run;
  /// Worker threads, resolved by sim::ResolveWorkers: 0 means one per
  /// hardware thread, and no count exceeds the hardware threads or the
  /// seeds. One worker runs the sweep on the calling thread. Workers stop
  /// starting seeds beyond the lowest failing one they have seen.
  int workers = 1;
  /// Shared wall-clock budget in seconds for the whole sweep (0 =
  /// unlimited). Honored across workers as one deadline.
  double time_budget = 0.0;
};

/// One seed's outcome within a batch.
struct SeedRun {
  std::uint64_t seed = 0;
  ScenarioSpec spec;
  /// False when the run never happened: the shared deadline expired first,
  /// or a lower seed had already failed.
  bool ran = false;
  bool ok = false;
  InvariantReport report;
  std::map<std::string, Bytes> file_sizes;
  Time sim_time = 0;
  std::uint64_t spans_dropped = 0;

  Bytes total_bytes() const {
    Bytes total = 0;
    for (const auto& [name, size] : file_sizes) total += size;
    return total;
  }
};

struct BatchResult {
  /// One entry per seed up to the highest one that started, in seed order:
  /// a sweep the deadline or a failure cut short holds no slot for the
  /// seeds it never reached.
  std::vector<SeedRun> runs;
  /// True when the shared deadline stopped at least one seed from running.
  bool deadline_hit = false;

  /// Index of the lowest failing run, or runs.size() when none failed.
  std::size_t first_failure() const {
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (runs[i].ran && !runs[i].ok) return i;
    return runs.size();
  }
  /// Length of the leading contiguous prefix that actually ran — what a
  /// serial sweep would have gotten through before stopping.
  std::size_t ran_prefix() const {
    std::size_t n = 0;
    while (n < runs.size() && runs[n].ran) ++n;
    return n;
  }
};

/// Runs seeds [base_seed, base_seed + n) under `options.workers` threads.
/// Never throws scenario errors (RunScenario converts them to "exception"
/// violations); a failure to start a thread does propagate.
BatchResult RunSeedBatch(std::uint64_t base_seed, std::uint64_t n, const BatchOptions& options);

}  // namespace uvs::testkit
