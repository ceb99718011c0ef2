// Performance-trajectory runner: measures kernel microbenchmark
// throughput plus wall-clock smoke times for the fig5a workload, and
// appends the results as one labelled entry to a machine-readable JSON
// file (default: BENCH_sim.json). Re-running at different commits with
// different labels builds up a before/after trajectory of simulator
// performance; docs/PERFORMANCE.md documents the schema and workflow.
//
// Usage:
//   bench_trajectory [--smoke] [--label NAME] [--out PATH] [-j N]
//
//   --smoke   smaller event counts / payloads (CI-friendly, seconds)
//   --label   entry label (default "run")
//   --out     output JSON path (default BENCH_sim.json in the CWD)
//   -j N      workers for the parallel-runner metrics, N >= 0 (0 = all
//             hardware threads; default 0); never more than the hardware
//             threads, and the entry records the count used
//
// Besides the kernel microbenchmarks and figure smokes, the entry carries
// parallel-runner metrics: the same fuzz seed sweep and cluster
// solo-baseline warmup timed at one worker and again fanned across
// sim::ParallelFor threads, plus the speedup ratios. Both are bit-identical
// at any worker count by construction (see docs/PERFORMANCE.md), so the
// ratio is pure scheduling gain.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/cluster/arrival.hpp"
#include "src/cluster/simulation.hpp"
#include "src/common/parse.hpp"
#include "src/sim/combinators.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"
#include "src/sim/parallel_for.hpp"
#include "src/testkit/batch.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

using namespace uvs;
using namespace uvs::sim;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// --- kernel microbenchmarks (same workloads as bench/micro_sim) ---------

Task Sleeper(Engine& engine, Time dt) { co_await engine.Delay(dt); }

double SpawnJoinPerSec(int procs, int rounds) {
  const auto t0 = Clock::now();
  long n = 0;
  for (int r = 0; r < rounds; ++r) {
    Engine engine;
    for (int i = 0; i < procs; ++i)
      engine.Spawn(Sleeper(engine, 1.0 + 1e-3 * i));
    engine.Run();
    n += procs;
  }
  const auto t1 = Clock::now();
  return static_cast<double>(n) / Seconds(t0, t1);
}

double WhenAllLegsPerSec(int legs, int fanouts) {
  const auto t0 = Clock::now();
  for (int f = 0; f < fanouts; ++f) {
    Engine engine;
    std::vector<Task> tasks;
    tasks.reserve(static_cast<std::size_t>(legs));
    for (int i = 0; i < legs; ++i) tasks.push_back(Sleeper(engine, 1.0));
    engine.Spawn(WhenAll(engine, std::move(tasks)));
    engine.Run();
  }
  const auto t1 = Clock::now();
  return static_cast<double>(legs) * fanouts / Seconds(t0, t1);
}

Task StaggeredTransfer(Engine& engine, FairSharePool& pool, Time at, Bytes bytes) {
  co_await engine.Delay(at);
  co_await pool.Transfer(bytes);
}

double FairShareFlowsPerSec(int flows, int rounds) {
  const auto t0 = Clock::now();
  long n = 0;
  for (int r = 0; r < rounds; ++r) {
    Engine engine;
    FairSharePool pool(engine, {.capacity = 1e9});
    for (int i = 0; i < flows; ++i)
      engine.Spawn(
          StaggeredTransfer(engine, pool, 1e-3 * i, 1000 + static_cast<Bytes>(i) * 37));
    engine.Run();
    n += flows;
  }
  const auto t1 = Clock::now();
  return static_cast<double>(n) / Seconds(t0, t1);
}


// --- figure-workload smokes (wall-clock, end to end) --------------------

double Fig5aSmokeWallSec(int procs, Bytes bytes_per_proc) {
  const auto t0 = Clock::now();
  univistor::Config config;  // IA placement + COC on, the paper's default
  auto setup = bench::MakeUniviStor(procs, config);
  workload::RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver,
                        {.bytes_per_proc = bytes_per_proc, .file_name = "traj.h5"});
  const auto t1 = Clock::now();
  return Seconds(t0, t1);
}

// --- parallel-runner metrics (one worker vs N, wall clock) -------------

double FuzzSweepWallSec(int workers, std::uint64_t seeds) {
  testkit::BatchOptions batch;
  batch.workers = workers;
  const auto t0 = Clock::now();
  const testkit::BatchResult sweep = testkit::RunSeedBatch(1, seeds, batch);
  const auto t1 = Clock::now();
  if (sweep.first_failure() < sweep.runs.size())
    std::fprintf(stderr, "bench_trajectory: fuzz sweep seed %llu FAILED (timing still reported)\n",
                 static_cast<unsigned long long>(
                     sweep.runs[sweep.first_failure()].seed));
  return Seconds(t0, t1);
}

double SoloWarmupWallSec(int workers, int mix_jobs) {
  // Same testkit-scale contended machine uvsim --cluster builds, so the
  // warmup runs the shapes a real cluster sweep would.
  hw::ClusterParams params = hw::CoriPreset(256, 4);
  params.node.cores = 8;
  params.node.dram_cache_capacity = 32_MiB;
  params.bb.bb_nodes = 2;
  params.bb.capacity_per_bb_node = 64_MiB;
  params.pfs.osts = 4;
  params.seed = 42;

  workload::ScenarioOptions options;
  options.procs = 256;
  options.policy = sched::PlacementPolicy::kInterferenceAware;
  options.cluster_params = params;
  workload::Scenario scenario(options);

  cluster::MixParams mix;
  mix.jobs = mix_jobs;
  std::vector<cluster::JobSpec> jobs = cluster::SampleJobMix(42, mix);

  cluster::ClusterOptions cluster_options;
  cluster_options.base_config.chunk_size = 1_MiB;
  cluster_options.solo_workers = workers;
  cluster::ClusterSim sim(scenario, std::move(jobs), cluster_options);
  const auto t0 = Clock::now();
  sim.WarmSoloBaselines();
  const auto t1 = Clock::now();
  return Seconds(t0, t1);
}

// --- JSON output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
};

std::string FormatEntry(const std::string& label, const std::string& mode,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "    {\n"
      << "      \"label\": \"" << label << "\",\n"
      << "      \"mode\": \"" << mode << "\",\n"
      << "      \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.6g", metrics[i].value);
    out << "        \"" << metrics[i].name << "\": " << num
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "      }\n    }";
  return out.str();
}

bool AppendEntry(const std::string& path, const std::string& entry) {
  std::string content;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }
  }
  const char* kSchema = "uvs-bench-trajectory-v1";
  if (content.find(kSchema) == std::string::npos) {
    // Fresh file (or an unrecognized one, which we refuse to mangle).
    if (!content.empty() && content.find_first_not_of(" \t\r\n") != std::string::npos) {
      std::fprintf(stderr, "bench_trajectory: %s exists but is not a %s file\n",
                   path.c_str(), kSchema);
      return false;
    }
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"entries\": [\n"
        << entry << "\n  ]\n}\n";
    return static_cast<bool>(out);
  }
  // Splice the new entry in before the closing bracket of "entries".
  const std::size_t close = content.rfind(']');
  const std::size_t open = content.find('[');
  if (close == std::string::npos || open == std::string::npos || open > close) {
    std::fprintf(stderr, "bench_trajectory: %s is malformed\n", path.c_str());
    return false;
  }
  const bool has_entries =
      content.find('{', open) != std::string::npos && content.find('{', open) < close;
  const std::size_t cut = content.find_last_not_of(" \t\r\n", close - 1) + 1;
  std::string spliced = content.substr(0, cut);
  spliced += has_entries ? ",\n" : "\n";
  spliced += entry;
  spliced += "\n  ";
  spliced += content.substr(close);
  std::ofstream out(path, std::ios::trunc);
  out << spliced;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string label = "run";
  std::string out_path = "BENCH_sim.json";
  int jobs = 0;  // parallel-runner workers; 0 = all hardware threads
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if ((std::strcmp(argv[i], "-j") == 0 || std::strcmp(argv[i], "--jobs") == 0) &&
               i + 1 < argc) {
      jobs = FlagNumber("bench_trajectory", argv[i], argv[i + 1], 0);
      ++i;
    } else if (std::strncmp(argv[i], "-j", 2) == 0 && argv[i][2] != '\0') {
      jobs = FlagNumber("bench_trajectory", "-j", argv[i] + 2, 0);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--label NAME] [--out PATH] [-j N]\n"
                   "  -j N  parallel-runner workers, N >= 0 (0 = all hardware threads,\n"
                   "        the default); capped at the hardware threads\n",
                   argv[0]);
      return 2;
    }
  }

  const int sj_rounds = smoke ? 5 : 30;
  const int when_all_fanouts = smoke ? 20000 : 200000;
  const int fs_rounds = smoke ? 20 : 100;
  const Bytes fig5a_bytes = smoke ? 16_MiB : 256_MiB;

  std::vector<Metric> metrics;
  const auto add = [&](const char* name, double value) {
    metrics.push_back({name, value});
    std::printf("%-40s %.6g\n", name, value);
  };

  add("spawn_join_procs_per_sec", SpawnJoinPerSec(10000, sj_rounds));
  add("when_all_legs_per_sec", WhenAllLegsPerSec(16, when_all_fanouts));
  add("fair_share_staggered_flows_per_sec", FairShareFlowsPerSec(1024, fs_rounds));
  for (int procs : {64, 256}) {
    char name[64];
    std::snprintf(name, sizeof(name), "fig5a_ia_smoke_wall_sec_p%d", procs);
    add(name, Fig5aSmokeWallSec(procs, fig5a_bytes));
  }
  // Extreme-scale smoke: 8192 ranks with a small per-rank payload, so the
  // cost is event-scheduling volume rather than simulated bytes.
  add("fig5a_ia_smoke_wall_sec_p8192", Fig5aSmokeWallSec(8192, smoke ? 1_MiB : 4_MiB));

  // Parallel-runner metrics: identical work timed at one worker and fanned
  // across threads. Speedup ~1.0 on a single-core host.
  const std::uint64_t sweep_seeds = smoke ? 32 : 256;
  const int warmup_mix = smoke ? 12 : 24;
  const int workers = sim::ResolveWorkers(sweep_seeds, jobs);  // the threads the sweep runs on
  add("parallel_workers", workers);
  add("hw_threads", sim::HardwareThreads());
  const double fuzz_serial = FuzzSweepWallSec(1, sweep_seeds);
  const double fuzz_parallel = FuzzSweepWallSec(workers, sweep_seeds);
  add("parallel_fuzz_sweep_serial_wall_sec", fuzz_serial);
  add("parallel_fuzz_sweep_parallel_wall_sec", fuzz_parallel);
  add("parallel_fuzz_sweep_speedup", fuzz_parallel > 0 ? fuzz_serial / fuzz_parallel : 0);
  const double solo_serial = SoloWarmupWallSec(1, warmup_mix);
  const double solo_parallel = SoloWarmupWallSec(workers, warmup_mix);
  add("parallel_solo_warmup_serial_wall_sec", solo_serial);
  add("parallel_solo_warmup_parallel_wall_sec", solo_parallel);
  add("parallel_solo_warmup_speedup", solo_parallel > 0 ? solo_serial / solo_parallel : 0);

  const std::string entry = FormatEntry(label, smoke ? "smoke" : "full", metrics);
  if (!AppendEntry(out_path, entry)) return 1;
  std::printf("appended entry \"%s\" to %s\n", label.c_str(), out_path.c_str());
  return 0;
}
