// uvfuzz — deterministic scenario fuzzer for the UniviStor simulation.
//
// Samples random end-to-end scenarios (cluster shape, system under test,
// config toggles, workload, failure injection) from sequential seeds, runs
// each to completion, and checks the whole-system invariants: byte
// conservation across the DHP cascade, metadata coverage and VA
// round-trips, range-partition ownership, bandwidth-pool conservation,
// quiescence, exact lost-byte accounting under failure, and differential
// read-back against the Lustre baseline. On the first failure it shrinks
// the scenario to a minimal reproducer and prints a one-line replay
// command.
//
//   uvfuzz --seeds=200            # fuzz 200 seeds
//   uvfuzz --seeds=256 -j 8       # same sweep fanned across 8 workers
//   uvfuzz --seed=17              # run exactly seed 17
//   uvfuzz --spec='procs=4 ...'   # replay a (shrunk) spec verbatim
//
// `-j N` drains the seed sweep across N threads, at most one per hardware
// thread (testkit::RunSeedBatch over sim::ParallelFor), with output
// byte-identical to `-j 1`: seeds are claimed in ascending order, results
// print in seed order, the first (lowest) failing seed is the one reported
// and shrunk, and --time-budget is one shared deadline for the whole sweep
// rather than per-worker. At `-j 1` the main thread runs every seed; at
// more, each worker thread runs its scenarios with no recorder bound
// (thread-local obs:: isolation). Either way the failing seed is replayed
// on the main thread, where the flight recorder is bound, to regenerate
// the ring before dumping it.
//
// Exit codes: 0 all runs clean, 1 invariant violation or escaped
// exception, 2 usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/log.hpp"
#include "src/common/parse.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/testkit/batch.hpp"
#include "src/testkit/runner.hpp"
#include "src/testkit/scenario_spec.hpp"
#include "src/testkit/shrink.hpp"

using namespace uvs;

namespace {

constexpr const char* kTool = "uvfuzz";
constexpr std::uint64_t kMaxSeeds = 1000000;  // the sweep holds one result per seed
constexpr double kMaxTimeBudget = 1e6;        // seconds; the deadline must fit the clock

struct Args {
  std::uint64_t seeds = 64;
  std::uint64_t base_seed = 1;
  bool single_seed = false;
  std::uint64_t seed = 0;
  std::string spec;          // explicit spec replay; overrides seeds
  double time_budget = 0.0;  // wall seconds; 0 = unlimited (shared across workers)
  int jobs = 1;              // worker threads for the seed sweep; 0 = hw, capped at hw
  bool shrink = true;
  bool differential = true;
  bool quiet = false;
  std::string flight;  // flight-recorder dump path ("" = off)
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: uvfuzz [flags]\n"
               "  --seeds=N          scenarios to run, 1 to 1000000 (default 64)\n"
               "  --base-seed=S      first seed, any uint64 (default 1)\n"
               "  --seed=S           run exactly one seed, any uint64\n"
               "  --spec='k=v ...'   replay one explicit scenario spec: each key at\n"
               "                     most once, booleans 0 or 1 (docs/TESTING.md)\n"
               "  --time-budget=S    stop fuzzing after S wall-clock seconds, 0 to\n"
               "                     1e6 (0 = no budget; one shared deadline — -j\n"
               "                     does not multiply it)\n"
               "  -j N, --jobs=N     fan the sweep across N >= 0 worker threads,\n"
               "                     at most one per hardware thread, with output\n"
               "                     identical at any N (0 = all hardware threads;\n"
               "                     default 1)\n"
               "  --no-shrink        do not shrink a failing scenario\n"
               "  --no-differential  skip the Lustre differential read-back\n"
               "  --flight-recorder[=FILE]\n"
               "                     dump a ring of recent events as JSON when a\n"
               "                     scenario fails (default file flight-recorder.json)\n"
               "  --quiet            only print failures and the summary\n"
               "  --help             show this message\n");
}

int Parse(int argc, char** argv, Args& args) {
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--seeds", &value))
      args.seeds = FlagNumber(kTool, "--seeds", value, std::uint64_t{1}, kMaxSeeds);
    else if (ParseFlag(arg, "--base-seed", &value))
      args.base_seed = FlagNumber(kTool, "--base-seed", value, std::uint64_t{0});
    else if (ParseFlag(arg, "--seed", &value)) {
      args.single_seed = true;
      args.seed = FlagNumber(kTool, "--seed", value, std::uint64_t{0});
    } else if (ParseFlag(arg, "--spec", &value)) args.spec = value;
    else if (ParseFlag(arg, "--time-budget", &value))
      args.time_budget = FlagNumber(kTool, "--time-budget", value, 0.0, kMaxTimeBudget);
    else if (ParseFlag(arg, "--jobs", &value)) args.jobs = FlagNumber(kTool, "--jobs", value, 0);
    else if (std::strcmp(arg, "-j") == 0 && i + 1 < argc)
      args.jobs = FlagNumber(kTool, "-j", argv[++i], 0);
    else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0')
      args.jobs = FlagNumber(kTool, "-j", arg + 2, 0);
    else if (std::strcmp(arg, "--no-shrink") == 0) args.shrink = false;
    else if (std::strcmp(arg, "--no-differential") == 0) args.differential = false;
    else if (std::strcmp(arg, "--flight-recorder") == 0) args.flight = "flight-recorder.json";
    else if (ParseFlag(arg, "--flight-recorder", &value)) args.flight = value;
    else if (std::strcmp(arg, "--quiet") == 0 || std::strcmp(arg, "-q") == 0) args.quiet = true;
    else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg);
      PrintUsage(stderr);
      return 2;
    }
  }
  return 0;
}

/// Runs one spec; on failure optionally shrinks and prints the reproducer.
/// Returns true when the run was clean.
bool RunOne(const testkit::ScenarioSpec& spec, const Args& args,
            const testkit::RunOptions& options) {
  const testkit::RunOutcome outcome = testkit::RunScenario(spec, options);
  if (outcome.spans_dropped > 0)
    std::fprintf(stderr,
                 "uvfuzz: warning: seed %llu dropped %llu spans at the recorder "
                 "cap — trace detail is incomplete\n",
                 static_cast<unsigned long long>(spec.seed),
                 static_cast<unsigned long long>(outcome.spans_dropped));
  if (outcome.ok()) {
    if (!args.quiet) {
      Bytes total = 0;
      for (const auto& [name, size] : outcome.file_sizes) total += size;
      std::printf("seed %llu ok (%s on %s, %d procs, %.1f MiB, sim %.3fs)\n",
                  static_cast<unsigned long long>(spec.seed),
                  workload::WorkloadKindName(spec.workload), workload::SystemKindName(spec.system),
                  spec.procs, static_cast<double>(total) / (1_MiB), outcome.sim_time);
    }
    return true;
  }

  std::printf("seed %llu FAILED:\n%s", static_cast<unsigned long long>(spec.seed),
              outcome.report.ToString().c_str());
  std::printf("spec: %s\n", spec.ToString().c_str());

  testkit::ScenarioSpec minimal = spec;
  if (args.shrink) {
    const auto result = testkit::Shrink(
        spec,
        [&options](const testkit::ScenarioSpec& candidate) {
          return !testkit::RunScenario(candidate, options).ok();
        });
    minimal = result.spec;
    std::printf("shrunk after %d attempts to: %s\n", result.attempts,
                minimal.ToString().c_str());
  }
  std::printf("repro: %s\n", minimal.ReproCommand().c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  Args args;
  if (const int rc = Parse(argc, argv, args); rc != 0) return rc;

  testkit::RunOptions options;
  options.differential = args.differential;

  // Dumped by the runner on the first failing scenario (reason
  // "invariant-failure"); shrink replays reuse the same ring.
  obs::FlightRecorder flight;
  if (!args.flight.empty()) {
    flight.SetDumpPath(args.flight);
    flight.Install();
  }

  try {
    if (!args.spec.empty()) {
      const auto spec = testkit::ParseScenarioSpec(args.spec);
      if (!spec.ok()) BadFlag(kTool, "--spec", spec.status().ToString());
      return RunOne(*spec, args, options) ? 0 : 1;
    }
    if (args.single_seed) {
      return RunOne(testkit::SampleScenario(args.seed), args, options) ? 0 : 1;
    }

    testkit::BatchOptions batch;
    batch.run = options;
    batch.workers = args.jobs;
    batch.time_budget = args.time_budget;
    const testkit::BatchResult sweep = testkit::RunSeedBatch(args.base_seed, args.seeds, batch);

    // Results in seed order; everything up to the first failure ran.
    std::uint64_t completed = 0;
    for (const testkit::SeedRun& run : sweep.runs) {
      if (!run.ran) break;
      if (run.spans_dropped > 0)
        std::fprintf(stderr,
                     "uvfuzz: warning: seed %llu dropped %llu spans at the recorder "
                     "cap — trace detail is incomplete\n",
                     static_cast<unsigned long long>(run.seed),
                     static_cast<unsigned long long>(run.spans_dropped));
      if (!run.ok) {
        // Replay on this thread — where the flight recorder is bound — to
        // regenerate the ring, print the report, dump, and shrink. The
        // simulation is deterministic, so the replay reproduces the
        // worker's failure exactly.
        if (RunOne(run.spec, args, options)) {
          std::fprintf(stderr,
                       "uvfuzz: seed %llu failed on a worker but replayed clean — "
                       "parallel/serial divergence, report this\n",
                       static_cast<unsigned long long>(run.seed));
          std::printf("spec: %s\n", run.spec.ToString().c_str());
        }
        return 1;
      }
      if (!args.quiet)
        std::printf("seed %llu ok (%s on %s, %d procs, %.1f MiB, sim %.3fs)\n",
                    static_cast<unsigned long long>(run.seed),
                    workload::WorkloadKindName(run.spec.workload),
                    workload::SystemKindName(run.spec.system), run.spec.procs,
                    static_cast<double>(run.total_bytes()) / (1_MiB), run.sim_time);
      ++completed;
    }
    if (sweep.deadline_hit)
      std::printf("time budget exhausted after %llu/%llu seeds\n",
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(args.seeds));
    std::printf("uvfuzz: %llu scenarios, all invariants hold\n",
                static_cast<unsigned long long>(completed));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uvfuzz: uncaught exception: %s\n", e.what());
    return 1;
  }
}
