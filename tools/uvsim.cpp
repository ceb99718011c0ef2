// uvsim — command-line front end for the UniviStor simulation stack.
//
// Runs one storage system against one workload on a Cori-like simulated
// machine and prints a timing summary. Examples:
//
//   uvsim --system=univistor --workload=micro --procs=512 --mb=256
//   uvsim --system=univistor --layer=bb --workload=vpic --steps=10
//   uvsim --system=de --workload=workflow --procs=256
//   uvsim --system=lustre --workload=micro --procs=1024 --read
//
// Flags:
// Run `uvsim --help` for the full flag list; `--trace` / `--metrics`
// additionally produce a Chrome trace-event timeline and a machine-readable
// run report (see docs/OBSERVABILITY.md). After a successful run, one line
// on stderr states what the run cost the host (see docs/PERFORMANCE.md).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "src/cluster/arrival.hpp"
#include "src/cluster/simulation.hpp"
#include "src/common/log.hpp"
#include "src/common/parse.hpp"
#include "src/common/strings.hpp"
#include "src/fault/injector.hpp"
#include "src/fault/plan.hpp"
#include "src/hw/probes.hpp"
#include "src/hw/utilization.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sampler.hpp"
#include "src/storage/pfs.hpp"
#include "src/testkit/invariants.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/scenario.hpp"

using namespace uvs;

namespace {

constexpr const char* kTool = "uvsim";

/// Flags only a single run reads: in --cluster mode each job takes its
/// shape from the sampled mix or the job file.
constexpr std::string_view kSingleRunFlags[] = {"--layer", "--read",   "--steps",   "--mb",
                                                "--no-ia", "--no-coc", "--no-adpt", "--no-la"};
/// Flags only a --cluster run reads: they shape the job mix, the shared
/// machine, the solo warmup and the tenant telemetry.
constexpr std::string_view kClusterOnlyFlags[] = {
    "--jobs",        "--csched",   "--interarrival", "--seed", "--bb-bound",
    "--lustre-frac", "--ec-frac",  "--bb-mb",        "--osts", "--ppn",
    "--solo-jobs",   "--job-file", "--job-trace",    "--slo",  "--live"};

struct Args {
  std::string system = "univistor";
  workload::SystemKind kind = workload::SystemKind::kUniviStor;
  std::string layer = "dram";
  hw::Layer first_layer = hw::Layer::kDram;
  std::string workload = "micro";
  int procs = 256;
  int mb = 256;
  int steps = 5;
  bool read = false;
  bool report = false;
  bool check = false;
  bool ia = true, coc = true, adpt = true, la = true;
  fault::Plan faults;   // --faults (docs/FAULTS.md grammar); empty = none
  bool recover = false;
  int ec_k = 0, ec_m = 0;       // --ec=K+M erasure-code shard counts (0 = off)
  bool scrub = false;           // run a background scrub after the workload
  double scrub_interval = -1;   // sim seconds between scrubbed stripes; <0 = default
  std::string trace;    // Chrome trace-event JSON output path
  std::string metrics;  // metrics JSON (or series CSV) output path
  double sample_interval = -1;  // simulated seconds; <0 = default
  bool attribution = false;     // causal attribution analysis + tables
  long long span_limit = -1;    // recorder span cap; <0 = default
  bool slo = false;             // cluster: evaluate + print SLO verdicts
  std::string slo_spec;         // custom SLO list (obs::ParseSloSpecs grammar)
  std::string flight;           // flight-recorder dump path ("" = off)
  bool live = false;            // cluster: periodic progress ticker

  // --cluster mode: multi-tenant job mix through cluster::ClusterSim.
  bool cluster = false;
  int jobs = 8;                  // sampled mix size
  std::string csched = "bb";     // fcfs | easy | bb
  double interarrival = 0.01;    // mean Poisson interarrival (sim seconds)
  unsigned long long seed = 42;  // mix sampling seed
  bool bb_bound = false;         // sample a BB-heavy mix
  double lustre_frac = 0.0;      // fraction of Lustre-baseline jobs
  double ec_frac = 0.0;          // fraction of erasure-coded UniviStor jobs
  int bb_mb = 64;                // BB capacity per BB node (MiB)
  int osts = 4;                  // PFS OSTs (few, so spilling hurts)
  int ppn = 4;                   // client ranks per allocated node
  int solo_jobs = 1;             // solo-baseline warmup worker threads (0 = hw, capped at hw)
  std::string job_file;          // input job trace (at=.. procs=.. lines)
  std::string job_trace;         // output JSON job trace path

  std::string_view single_run_flag;   // the first of kSingleRunFlags given
  std::string_view cluster_only_flag;  // the first of kClusterOnlyFlags given
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: uvsim [flags]\n"
               "  --system=univistor|de|lustre    storage system under test\n"
               "  --layer=dram|bb|disk            UniviStor first cache layer\n"
               "  --workload=micro|vpic|workflow  workload to run\n"
               "  --procs=N                       client ranks (default 256, at most 65536)\n"
               "  --mb=N                          MiB written per process (default 256)\n"
               "  --steps=N                       vpic/workflow timesteps (default 5)\n"
               "  --read                          micro: read the file back after writing\n"
               "  --report                        print the device-utilization table\n"
               "  --check                         run the testkit invariant checks after\n"
               "                                  the workload; violations exit non-zero\n"
               "  --no-ia / --no-coc / --no-adpt / --no-la\n"
               "                                  disable a UniviStor optimization\n"
               "  --faults=SPEC                   inject a fault plan, e.g.\n"
               "                                  'crash@0.5:node=1;ost@1+2:ost=3,factor=0.1'\n"
               "                                  (grammar in docs/FAULTS.md)\n"
               "  --ec=K+M                        erasure-code PFS files into K data +\n"
               "                                  M parity shards (RMW partial-stripe\n"
               "                                  writes, degraded reads; docs/FAULTS.md)\n"
               "  --scrub[=S]                     run a background parity scrub after the\n"
               "                                  workload, pacing S sim seconds between\n"
               "                                  stripes (plan scrub@T events also work)\n"
               "  --recover                       enable active recovery (retries,\n"
               "                                  re-striping, metadata repartitioning;\n"
               "                                  implies volatile replication)\n"
               "  --trace=FILE                    write a Chrome trace-event timeline\n"
               "                                  (load in chrome://tracing or Perfetto)\n"
               "  --metrics=FILE                  write the metrics run report as JSON\n"
               "                                  (a .csv path writes the sampled series)\n"
               "  --sample-interval=S             gauge sampling period in simulated\n"
               "                                  seconds (default 1 when observability\n"
               "                                  is on; 0 disables sampling)\n"
               "  --attribution                   run the causal wait-state analysis:\n"
               "                                  per-job time attribution, critical\n"
               "                                  path, device USE rollups; embedded in\n"
               "                                  --metrics JSON (diff with uvreport)\n"
               "  --span-limit=N                  cap recorder span memory at N spans\n"
               "                                  (excess dropped and counted; in cluster\n"
               "                                  mode tail-based retention prunes boring\n"
               "                                  jobs' rank spans first)\n"
               "  --slo[=SPEC]                    cluster: evaluate per-tenant SLOs and\n"
               "                                  print burn-rate verdicts; SPEC is a ';'\n"
               "                                  list like 'stretch<=4:budget=0.25'\n"
               "                                  (default battery when omitted)\n"
               "  --flight-recorder[=FILE]        keep a ring of recent events and dump it\n"
               "                                  as JSON on invariant failure, node crash\n"
               "                                  or non-zero exit (default file\n"
               "                                  flight-recorder.json)\n"
               "  --live                          cluster: print a progress ticker every\n"
               "                                  sampling interval\n"
               "  --cluster                       multi-tenant mode: run a job mix through\n"
               "                                  the cluster scheduler and print per-job\n"
               "                                  QoS (wait, stretch, BB interference)\n"
               "  --jobs=N                        cluster: sampled mix size (default 8)\n"
               "  --csched=fcfs|easy|bb           cluster: scheduling policy (default bb)\n"
               "  --interarrival=S                cluster: mean Poisson interarrival in\n"
               "                                  sim seconds (default 0.01; 0 = all at t=0)\n"
               "  --seed=N                        cluster: mix sampling seed (default 42)\n"
               "  --bb-bound                      cluster: sample a BB-heavy mix\n"
               "  --lustre-frac=F                 cluster: fraction of Lustre jobs\n"
               "  --ec-frac=F                     cluster: fraction of erasure-coded\n"
               "                                  UniviStor jobs in the sampled mix\n"
               "  --bb-mb=N                       cluster: BB capacity per BB node in MiB\n"
               "                                  (default 64 — small, so BB binds)\n"
               "  --osts=N                        cluster: PFS OSTs (default 4 — few, so\n"
               "                                  spilling past the BB hurts)\n"
               "  --ppn=N                         cluster: client ranks per node (default 4)\n"
               "  --solo-jobs=N                   cluster: worker threads for the solo-\n"
               "                                  baseline warmup, at most one per\n"
               "                                  hardware thread (0 = all hardware\n"
               "                                  threads; default 1). Output is identical\n"
               "                                  at any worker count\n"
               "  --job-file=FILE                 cluster: read the mix from a job trace\n"
               "                                  (lines of 'at=T procs=N [kind=..] ...')\n"
               "  --job-trace=FILE                cluster: write the JSON job trace\n"
               "  --help                          show this message\n"
               "Environment: UVS_LOG_LEVEL=trace|debug|info|warn|error|off\n");
}

double ScrubInterval(const Args& args) {
  return args.scrub_interval >= 0 ? args.scrub_interval : workload::kScrubStripeInterval;
}

void PrintEcStats(const storage::Pfs& pfs) {
  const auto& e = pfs.ec_stats();
  std::printf("ec: rmw %llu stripes (%s read, %s parity) | degraded %llu reads (%s) | "
              "rebuilt %s | scrub %llu passes, %llu stripes, %llu repairs | lost %s\n",
              static_cast<unsigned long long>(e.rmw_stripes),
              HumanBytes(e.rmw_read_bytes).c_str(), HumanBytes(e.parity_bytes).c_str(),
              static_cast<unsigned long long>(e.degraded_reads),
              HumanBytes(e.degraded_read_bytes).c_str(), HumanBytes(e.rebuilt_bytes).c_str(),
              static_cast<unsigned long long>(e.scrub_passes),
              static_cast<unsigned long long>(e.scrub_stripes),
              static_cast<unsigned long long>(e.scrub_repairs),
              HumanBytes(e.lost_bytes).c_str());
}

Args Parse(int argc, char** argv) {
  Args args;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const std::string_view name = std::string_view(arg).substr(0, std::strcspn(arg, "="));
    if (args.single_run_flag.empty() && std::ranges::count(kSingleRunFlags, name) > 0)
      args.single_run_flag = name;
    if (args.cluster_only_flag.empty() && std::ranges::count(kClusterOnlyFlags, name) > 0)
      args.cluster_only_flag = name;
    if (ParseFlag(arg, "--system", &value)) args.system = value;
    else if (ParseFlag(arg, "--layer", &value)) args.layer = value;
    else if (ParseFlag(arg, "--workload", &value)) args.workload = value;
    else if (ParseFlag(arg, "--procs", &value))
      args.procs = FlagNumber(kTool, "--procs", value, 1, workload::kMaxProcs);
    else if (ParseFlag(arg, "--mb", &value)) args.mb = FlagNumber(kTool, "--mb", value, 0);
    else if (ParseFlag(arg, "--steps", &value))
      args.steps = FlagNumber(kTool, "--steps", value, 1);
    else if (ParseFlag(arg, "--faults", &value)) {
      auto plan = fault::ParsePlan(value);
      if (!plan.ok()) BadFlag(kTool, "--faults", plan.status().ToString());
      args.faults = *std::move(plan);
    }
    else if (ParseFlag(arg, "--ec", &value)) {
      const auto shards = ParseEcShards(value);
      if (!shards.ok()) BadFlag(kTool, "--ec", shards.status().message());
      args.ec_k = shards->first;
      args.ec_m = shards->second;
    }
    else if (std::strcmp(arg, "--scrub") == 0) args.scrub = true;
    else if (ParseFlag(arg, "--scrub", &value)) {
      args.scrub = true;
      args.scrub_interval = FlagNumber(kTool, "--scrub", value, 0.0);
    }
    else if (std::strcmp(arg, "--recover") == 0) args.recover = true;
    else if (ParseFlag(arg, "--trace", &value)) args.trace = value;
    else if (ParseFlag(arg, "--metrics", &value)) args.metrics = value;
    else if (ParseFlag(arg, "--sample-interval", &value))
      args.sample_interval = FlagNumber(kTool, "--sample-interval", value, 0.0);
    else if (std::strcmp(arg, "--attribution") == 0) args.attribution = true;
    else if (ParseFlag(arg, "--span-limit", &value))
      args.span_limit = FlagNumber(kTool, "--span-limit", value, 0LL);
    else if (std::strcmp(arg, "--slo") == 0) args.slo = true;
    else if (ParseFlag(arg, "--slo", &value)) {
      args.slo = true;
      args.slo_spec = value;
    }
    else if (std::strcmp(arg, "--flight-recorder") == 0) args.flight = "flight-recorder.json";
    else if (ParseFlag(arg, "--flight-recorder", &value)) args.flight = value;
    else if (std::strcmp(arg, "--live") == 0) args.live = true;
    else if (std::strcmp(arg, "--cluster") == 0) args.cluster = true;
    else if (ParseFlag(arg, "--jobs", &value))
      args.jobs = FlagNumber(kTool, "--jobs", value, 1);
    else if (ParseFlag(arg, "--csched", &value)) args.csched = value;
    else if (ParseFlag(arg, "--interarrival", &value))
      args.interarrival = FlagNumber(kTool, "--interarrival", value, 0.0);
    else if (ParseFlag(arg, "--seed", &value))
      args.seed = FlagNumber(kTool, "--seed", value, 0ULL);
    else if (std::strcmp(arg, "--bb-bound") == 0) args.bb_bound = true;
    else if (ParseFlag(arg, "--lustre-frac", &value))
      args.lustre_frac = FlagNumber(kTool, "--lustre-frac", value, 0.0, 1.0);
    else if (ParseFlag(arg, "--ec-frac", &value))
      args.ec_frac = FlagNumber(kTool, "--ec-frac", value, 0.0, 1.0);
    else if (ParseFlag(arg, "--bb-mb", &value))
      args.bb_mb = FlagNumber(kTool, "--bb-mb", value, 0);
    else if (ParseFlag(arg, "--osts", &value))
      args.osts = FlagNumber(kTool, "--osts", value, 1);
    else if (ParseFlag(arg, "--ppn", &value)) args.ppn = FlagNumber(kTool, "--ppn", value, 1);
    else if (ParseFlag(arg, "--solo-jobs", &value))
      args.solo_jobs = FlagNumber(kTool, "--solo-jobs", value, 0);
    else if (ParseFlag(arg, "--job-file", &value)) args.job_file = value;
    else if (ParseFlag(arg, "--job-trace", &value)) args.job_trace = value;
    else if (std::strcmp(arg, "--read") == 0) args.read = true;
    else if (std::strcmp(arg, "--report") == 0) args.report = true;
    else if (std::strcmp(arg, "--check") == 0) args.check = true;
    else if (std::strcmp(arg, "--no-ia") == 0) args.ia = false;
    else if (std::strcmp(arg, "--no-coc") == 0) args.coc = false;
    else if (std::strcmp(arg, "--no-adpt") == 0) args.adpt = false;
    else if (std::strcmp(arg, "--no-la") == 0) args.la = false;
    else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg);
      PrintUsage(stderr);
      std::exit(2);
    }
  }

  if (args.system == "univistor") args.kind = workload::SystemKind::kUniviStor;
  else if (args.system == "de") args.kind = workload::SystemKind::kDataElevator;
  else if (args.system == "lustre") args.kind = workload::SystemKind::kLustre;
  else BadFlag(kTool, "--system", "unknown system '" + args.system + "'");
  if (args.layer == "bb") args.first_layer = hw::Layer::kSharedBurstBuffer;
  else if (args.layer == "disk") args.first_layer = hw::Layer::kPfs;
  else if (args.layer != "dram") BadFlag(kTool, "--layer", "unknown layer '" + args.layer + "'");
  if (args.workload != "micro" && args.workload != "vpic" && args.workload != "workflow")
    BadFlag(kTool, "--workload", "unknown workload '" + args.workload + "'");
  // Either mode rejects flags that would select nothing.
  if (args.cluster) {
    if (!args.single_run_flag.empty())
      BadFlag(kTool, std::string(args.single_run_flag), "has no effect with --cluster");
    if (args.scrub && args.ec_k == 0 && args.ec_frac == 0)
      BadFlag(kTool, "--scrub", "needs --ec=K+M or --ec-frac with --cluster");
    return args;
  }
  if (!args.cluster_only_flag.empty())
    BadFlag(kTool, std::string(args.cluster_only_flag), "needs --cluster");
  if (args.workload == "workflow" && args.procs < 2)
    BadFlag(kTool, "--procs", "workflow needs >= 2 ranks (writers and readers)");
  if (args.ec_k > 0 && args.kind != workload::SystemKind::kUniviStor)
    BadFlag(kTool, "--ec", "needs --system=univistor");
  if (args.scrub && args.ec_k == 0) BadFlag(kTool, "--scrub", "needs --ec=K+M");
  if (args.read && args.workload != "micro") BadFlag(kTool, "--read", "needs --workload=micro");
  return args;
}

/// Runs the --check battery `check` with the recorder detached, so the
/// checks' own metadata queries never reach the run's metrics, and prints
/// the verdict; on violations notes each in the flight recorder and dumps
/// it. Returns false when an invariant failed.
bool RunCheck(obs::Recorder& recorder, Time now,
              const std::function<void(testkit::InvariantReport&)>& check) {
  const bool observed = recorder.installed();
  recorder.Uninstall();
  testkit::InvariantReport report;
  check(report);
  if (observed) recorder.Install();
  if (!report.ok()) {
    std::fprintf(stderr, "uvsim: invariant violations:\n%s", report.ToString().c_str());
    for (const auto& v : report.violations)
      obs::FlightNote(now, "invariant", v.invariant, 0, v.detail);
    if (Status fs = obs::FlightDump("invariant-failure"); !fs.ok())
      std::fprintf(stderr, "uvsim: flight dump failed: %s\n", fs.ToString().c_str());
    return false;
  }
  std::printf("check: all invariants hold\n");
  return true;
}

/// Writes --trace and --metrics (a .csv path writes the sampled series);
/// the JSON blocks are embedded in the metrics report when non-empty.
/// Returns false when a file could not be written.
bool WriteObservability(const Args& args, const obs::Recorder& recorder, Time now,
                        const std::string& attribution_json,
                        const std::string& telemetry_json = "",
                        const std::string& slo_json = "") {
  if (!args.trace.empty()) {
    if (Status s = recorder.WriteChromeTrace(args.trace); !s.ok()) {
      std::fprintf(stderr, "uvsim: writing %s: %s\n", args.trace.c_str(),
                   s.ToString().c_str());
      return false;
    }
    std::printf("trace: %s (%zu spans, %zu samples)\n", args.trace.c_str(),
                recorder.span_count(), recorder.sample_count());
  }
  if (!args.metrics.empty()) {
    const bool csv = args.metrics.size() >= 4 &&
                     args.metrics.compare(args.metrics.size() - 4, 4, ".csv") == 0;
    Status s = csv ? recorder.WriteSeriesCsv(args.metrics)
                   : recorder.WriteMetricsJson(args.metrics, now, attribution_json,
                                               telemetry_json, slo_json);
    if (!s.ok()) {
      std::fprintf(stderr, "uvsim: writing %s: %s\n", args.metrics.c_str(),
                   s.ToString().c_str());
      return false;
    }
    std::printf("metrics: %s\n", args.metrics.c_str());
  }
  return true;
}

/// Multi-tenant mode: sample (or read) a job mix, run it through
/// cluster::ClusterSim under the chosen policy, print per-job QoS and the
/// mix rollup, optionally dump the deterministic JSON job trace.
int RunCluster(const Args& args, std::uint64_t& events) {
  obs::Recorder recorder;
  const bool obs_on = !args.trace.empty() || !args.metrics.empty();
  if (args.span_limit >= 0) recorder.SetSpanLimit(static_cast<std::size_t>(args.span_limit));
  if (obs_on) recorder.Install();

  const auto policy = cluster::ParsePolicy(args.csched);
  if (!policy.ok()) {
    std::fprintf(stderr, "uvsim: --csched: %s\n", policy.status().ToString().c_str());
    return 2;
  }

  // Testkit-scale machine: small per-node caches and a small shared BB so
  // the mix genuinely contends (a Cori-sized BB never binds at these job
  // sizes and every policy degenerates to FCFS).
  hw::ClusterParams params = hw::CoriPreset(args.procs, args.ppn);
  params.node.cores = 8;
  params.node.dram_cache_capacity = 32_MiB;
  params.bb.bb_nodes = 2;
  params.bb.capacity_per_bb_node = static_cast<Bytes>(args.bb_mb) * 1_MiB;
  params.pfs.osts = args.osts;
  params.seed = static_cast<std::uint64_t>(args.seed);

  workload::ScenarioOptions options;
  options.procs = args.procs;
  options.policy = sched::PlacementPolicy::kInterferenceAware;
  options.cluster_params = params;
  workload::Scenario scenario(options);

  const double interval = args.sample_interval >= 0
                              ? args.sample_interval
                              : ((obs_on || args.live) ? 1.0 : 0.0);
  obs::Sampler sampler(scenario.engine(), recorder, interval);
  if (obs_on) hw::RegisterClusterGauges(sampler, scenario.cluster());

  std::vector<cluster::JobSpec> jobs;
  if (!args.job_file.empty()) {
    std::ifstream in(args.job_file);
    if (!in) {
      std::fprintf(stderr, "uvsim: cannot read --job-file=%s\n", args.job_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = cluster::ParseJobTrace(text.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "uvsim: --job-file: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    jobs = *std::move(parsed);
  } else {
    cluster::MixParams mix;
    mix.jobs = args.jobs;
    mix.mean_interarrival = args.interarrival;
    mix.bb_bound = args.bb_bound;
    mix.lustre_fraction = args.lustre_frac;
    mix.ec_fraction = args.ec_frac;
    jobs = cluster::SampleJobMix(static_cast<std::uint64_t>(args.seed), mix);
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "uvsim: empty job mix\n");
    return 2;
  }

  cluster::ClusterOptions cluster_options;
  cluster_options.policy = *policy;
  cluster_options.procs_per_node = args.ppn;
  cluster_options.solo_workers = args.solo_jobs;
  // Jobs at this scale write 1-8 MiB per rank; the Cori-scale 32 MiB
  // default chunk would make every per-rank BB log come out below one
  // chunk and silently drop the BB layer even under a full reservation.
  cluster_options.base_config.chunk_size = 1_MiB;
  if (args.ec_k > 0) {
    // Every UniviStor job in the mix erasure-codes its PFS files; --ec-frac
    // instead marks a sampled subset (with the 4+2 default shard counts).
    cluster_options.base_config.ec.enabled = true;
    cluster_options.base_config.ec.data_shards = args.ec_k;
    cluster_options.base_config.ec.parity_shards = args.ec_m;
  }
  // Telemetry is always-on whenever anything observes the run: --slo asks
  // for it explicitly, and a trace/metrics export should carry the
  // telemetry + slo blocks without extra flags.
  cluster_options.telemetry.enabled = args.slo || obs_on;
  if (!args.slo_spec.empty()) {
    auto specs = obs::ParseSloSpecs(args.slo_spec);
    if (!specs.ok()) {
      std::fprintf(stderr, "uvsim: --slo: %s\n", specs.status().ToString().c_str());
      return 2;
    }
    cluster_options.telemetry.slos = *std::move(specs);
  }
  cluster::ClusterSim sim(scenario, std::move(jobs), cluster_options);

  if (args.live)
    sampler.AddSource([&sim, &scenario] {
      std::printf("live: t=%s jobs %d/%d done, %d arrived | bb %s of %s\n",
                  HumanTime(scenario.engine().Now()).c_str(), sim.completed_jobs(),
                  sim.job_count(), sim.arrived_jobs(),
                  HumanBytes(sim.peak_bb_reserved()).c_str(),
                  HumanBytes(sim.bb_capacity()).c_str());
    });

  std::unique_ptr<fault::Injector> injector;
  if (!args.faults.empty()) {
    injector = workload::ArmFaults(scenario, args.faults, nullptr, args.recover,
                                   ScrubInterval(args));
    sim.AttachInjector(*injector);
    std::printf("faults: %s\n", args.faults.ToString().c_str());
  }

  std::printf("uvsim cluster: policy=%s jobs=%d seed=%llu nodes=%d bb=%s\n",
              cluster::PolicyName(*policy), sim.job_count(),
              static_cast<unsigned long long>(args.seed),
              scenario.cluster().node_count(), HumanBytes(sim.bb_capacity()).c_str());

  sampler.Kick();
  sim.Run();
  const bool ec = args.ec_k > 0 || args.ec_frac > 0;
  if (args.scrub && ec) workload::RunFinalScrub(scenario, ScrubInterval(args));

  std::printf("%4s %-10s %-9s %5s %8s %9s %9s %8s %9s %10s\n", "job", "kind", "system",
              "procs", "arrival", "wait", "stretch", "bb", "drain-if", "lost");
  for (const auto& q : sim.qos()) {
    const cluster::JobSpec& spec = sim.spec(q.id);
    std::printf("%4d %-10s %-9s %5d %8.3f %9.3f %9.2f %8s %9.3f %10s\n", q.id,
                cluster::JobKindName(spec.kind), workload::SystemKindName(spec.system),
                spec.procs, q.arrival, q.wait(), q.stretch(),
                HumanBytes(q.bb_granted).c_str(), q.drain_interference,
                HumanBytes(q.lost_bytes).c_str());
  }
  const cluster::QosSummary summary = sim.summary();
  std::printf("qos: %d/%d completed | stretch mean %.2f p50 %.2f p99 %.2f | "
              "wait mean %.3f p99 %.3f | drain interference %s | peak BB %s of %s\n",
              summary.completed, summary.jobs, summary.mean_stretch, summary.p50_stretch,
              summary.p99_stretch, summary.mean_wait, summary.p99_wait,
              HumanTime(summary.total_drain_interference).c_str(),
              HumanBytes(sim.peak_bb_reserved()).c_str(),
              HumanBytes(sim.bb_capacity()).c_str());
  if (ec) PrintEcStats(scenario.pfs());
  if (args.slo && sim.telemetry_enabled()) {
    std::printf("%-16s %8s %9s %10s %10s %7s %9s\n", "slo (cluster)", "budget", "consumed",
                "burn-fast", "burn-slow", "alerts", "verdict");
    for (const obs::SloTracker& tracker : sim.cluster_slos())
      std::printf("%-16s %8.3g %9.2f %10.2f %10.2f %7llu %9s\n",
                  tracker.spec().Label().c_str(), tracker.spec().budget,
                  tracker.budget_consumed(), tracker.peak_fast_burn(),
                  tracker.peak_slow_burn(),
                  static_cast<unsigned long long>(tracker.alerts()), tracker.verdict());
    const obs::QuantileSketch stretch = sim.ClusterStretchSketch();
    std::printf("telemetry: stretch p50 %.3f p99 %.3f (sketch, rel err %.0f%%; "
                "exact %.3f / %.3f)\n",
                stretch.Quantile(0.5), stretch.Quantile(0.99),
                100.0 * stretch.relative_error(), summary.p50_stretch,
                summary.p99_stretch);
  }
  events = scenario.engine().processed_events();
  std::printf("simulated %s in %llu events\n", HumanTime(scenario.engine().Now()).c_str(),
              static_cast<unsigned long long>(events));

  if (args.check && !RunCheck(recorder, scenario.engine().Now(),
                              [&](testkit::InvariantReport& report) {
                                testkit::CheckClusterRun(scenario, sim, injector != nullptr,
                                                         report);
                              }))
    return 1;

  if (!args.job_trace.empty()) {
    std::ofstream out(args.job_trace);
    if (!out) {
      std::fprintf(stderr, "uvsim: cannot write --job-trace=%s\n", args.job_trace.c_str());
      return 1;
    }
    out << sim.JobTraceJson();
    std::printf("job trace: %s\n", args.job_trace.c_str());
  }
  std::string telemetry_json;
  std::string slo_json;
  if (sim.telemetry_enabled() && !args.metrics.empty()) {
    telemetry_json = sim.TelemetryJson();
    slo_json = sim.SloJson();
  }
  if (!WriteObservability(args, recorder, scenario.engine().Now(), "", telemetry_json, slo_json))
    return 1;
  if (recorder.spans_dropped() > 0)
    std::fprintf(stderr,
                 "uvsim: warning: %llu spans dropped at span cap %zu (%llu pruned "
                 "by tail retention) — trace detail is incomplete; raise --span-limit\n",
                 static_cast<unsigned long long>(recorder.spans_dropped()),
                 recorder.span_limit(),
                 static_cast<unsigned long long>(recorder.spans_pruned()));
  return 0;
}

/// Runs the simulation; `events` receives the engine's event count.
int Run(const Args& args, std::uint64_t& events) {
  if (args.cluster) return RunCluster(args, events);
  // The recorder outlives the scenario (spans are emitted from coroutine
  // frames destroyed during engine teardown).
  obs::Recorder recorder;
  const bool obs_on = !args.trace.empty() || !args.metrics.empty() || args.attribution;
  if (args.span_limit >= 0) recorder.SetSpanLimit(static_cast<std::size_t>(args.span_limit));
  if (obs_on) recorder.Install();

  const bool workflow = args.workload == "workflow";
  workload::ScenarioOptions options;
  options.procs = args.procs;
  options.workflow_enabled = workflow;
  options.policy = (args.kind == workload::SystemKind::kUniviStor && args.ia)
                       ? sched::PlacementPolicy::kInterferenceAware
                       : sched::PlacementPolicy::kCfs;
  workload::Scenario scenario(options);

  const double interval =
      args.sample_interval >= 0 ? args.sample_interval : (obs_on ? 1.0 : 0.0);
  obs::Sampler sampler(scenario.engine(), recorder, interval);
  if (obs_on) hw::RegisterClusterGauges(sampler, scenario.cluster());

  // The system under test behind the common ADIO interface.
  univistor::Config config;
  config.collective_open_close = args.coc;
  config.adaptive_striping = args.adpt;
  config.location_aware_reads = args.la;
  config.interference_aware_flush = args.ia;
  config.first_cache_layer = args.first_layer;
  config.recovery.enabled = args.recover;
  if (args.recover) config.replicate_volatile = true;
  if (args.ec_k > 0) {
    config.ec.enabled = true;
    config.ec.data_shards = args.ec_k;
    config.ec.parity_shards = args.ec_m;
  }
  workload::SystemUnderTest sut = workload::BuildSystem(scenario, args.kind, config);
  univistor::UniviStor* uvs_system = sut.univistor.get();
  if (obs_on && uvs_system != nullptr) uvs_system->RegisterGauges(sampler);

  std::printf("uvsim: system=%s layer=%s workload=%s procs=%d\n", args.system.c_str(),
              args.layer.c_str(), args.workload.c_str(), args.procs);

  std::unique_ptr<fault::Injector> injector;
  if (!args.faults.empty()) {
    injector = workload::ArmFaults(scenario, args.faults, uvs_system, args.recover,
                                   ScrubInterval(args));
    std::printf("faults: %s\n", args.faults.ToString().c_str());
  }

  const workload::WorkloadParams params{
      .kind = workflow                  ? workload::WorkloadKind::kWorkflow
              : args.workload == "vpic" ? workload::WorkloadKind::kVpic
              : args.read               ? workload::WorkloadKind::kMicroReadBack
                                        : workload::WorkloadKind::kMicro,
      .procs = args.procs,
      .bytes_per_rank = static_cast<Bytes>(args.mb) * 1_MiB,
      .steps = args.steps,
      .vpic_vars = 8,
      .compute_time = workflow ? 0.0 : 60.0};
  sampler.Kick();
  const workload::WorkloadResult r =
      workload::DriveWorkload(scenario, sut, params, [&sampler] { sampler.Kick(); });
  if (args.workload == "micro") {
    std::printf("open %s | io %s | close %s | elapsed %s | rate %s\n",
                HumanTime(r.micro.open).c_str(), HumanTime(r.micro.io).c_str(),
                HumanTime(r.micro.close).c_str(), HumanTime(r.micro.elapsed).c_str(),
                HumanRate(r.micro.rate()).c_str());
  } else if (!workflow) {
    std::printf("write %s | final flush wait %s | total I/O %s | elapsed %s\n",
                HumanTime(r.vpic.write_time).c_str(),
                HumanTime(r.vpic.final_flush_wait).c_str(),
                HumanTime(r.vpic.total_io_time).c_str(), HumanTime(r.vpic.elapsed).c_str());
  } else {
    std::printf("producer writes %s | consumer reads %s | workflow elapsed %s\n",
                HumanTime(r.workflow.producer.write_time).c_str(),
                HumanTime(r.workflow.consumer.read_time).c_str(),
                HumanTime(r.workflow.elapsed).c_str());
  }

  if (args.scrub) workload::RunFinalScrub(scenario, ScrubInterval(args));

  if (uvs_system != nullptr && uvs_system->flush_stats().flushes > 0) {
    const auto& f = uvs_system->flush_stats();
    std::printf("flush: %d flushes, %s, last took %s\n", f.flushes,
                HumanBytes(f.bytes_flushed).c_str(),
                HumanTime(f.last_flush_duration).c_str());
  }
  if (injector != nullptr) {
    const auto& s = injector->stats();
    std::printf("faults: %llu crashes, %llu ost windows, %llu bb windows, "
                "%llu timeout windows | degraded %s (ost) %s (bb)\n",
                static_cast<unsigned long long>(s.crashes),
                static_cast<unsigned long long>(s.ost_windows),
                static_cast<unsigned long long>(s.bb_windows),
                static_cast<unsigned long long>(s.timeout_windows),
                HumanTime(scenario.cluster().pfs().degraded_seconds()).c_str(),
                HumanTime(scenario.cluster().burst_buffer().degraded_seconds()).c_str());
  }
  if (uvs_system != nullptr && (injector != nullptr || args.recover)) {
    std::printf("recovery: %llu flush retries (%s backoff), %s re-striped, "
                "%llu metadata records repartitioned, %s safe-mode, %s lost\n",
                static_cast<unsigned long long>(uvs_system->flush_retries()),
                HumanTime(uvs_system->backoff_seconds()).c_str(),
                HumanBytes(uvs_system->restriped_bytes()).c_str(),
                static_cast<unsigned long long>(uvs_system->repartitioned_records()),
                HumanBytes(uvs_system->safe_mode_bytes()).c_str(),
                HumanBytes(uvs_system->lost_bytes()).c_str());
  }
  if (args.ec_k > 0) PrintEcStats(scenario.pfs());
  events = scenario.engine().processed_events();
  std::printf("simulated %s in %llu events\n", HumanTime(scenario.engine().Now()).c_str(),
              static_cast<unsigned long long>(events));

  // Kernel-health counters, surfaced in the metrics run report alongside
  // the simulation-level metrics (see docs/PERFORMANCE.md).
  {
    const sim::Engine& engine = scenario.engine();
    obs::Count("sim.events_processed", engine.processed_events());
    obs::Count("sim.events_cancelled", engine.cancelled_events());
    obs::Count("sim.heap_peak", engine.heap_peak());
    obs::Count("sim.frames_reclaimed", engine.frames_reclaimed());
    obs::SetGauge("sim.live_processes", static_cast<double>(engine.live_processes()));
  }
  if (args.check && !RunCheck(recorder, scenario.engine().Now(),
                              [&](testkit::InvariantReport& report) {
                                testkit::CheckSingleRun(scenario, uvs_system,
                                                        injector != nullptr, 0, report);
                              }))
    return 1;
  if (args.report)
    std::printf("%s", hw::CollectUtilization(scenario.cluster()).ToString().c_str());

  // Close any open degradation windows so they appear as spans before the
  // analysis and the trace/metrics exports (totals are unchanged).
  if (obs_on) {
    scenario.cluster().pfs().FlushDegradeSpans();
    scenario.cluster().burst_buffer().FlushDegradeSpans();
  }

  std::string attribution_json;
  if (args.attribution) {
    const obs::Report attribution = workload::AnalyzeRun(recorder, scenario, uvs_system);
    std::printf("%s", obs::ToText(attribution).c_str());
    if (recorder.spans_dropped() > 0)
      std::printf("attribution: %llu spans dropped at cap %zu — categories "
                  "undercount accordingly\n",
                  static_cast<unsigned long long>(recorder.spans_dropped()),
                  recorder.span_limit());
    attribution_json = obs::AttributionJson(attribution);
  }

  if (!WriteObservability(args, recorder, scenario.engine().Now(), attribution_json)) return 1;
  if (recorder.spans_dropped() > 0)
    std::fprintf(stderr,
                 "uvsim: warning: %llu spans dropped at span cap %zu — trace "
                 "detail is incomplete; raise --span-limit\n",
                 static_cast<unsigned long long>(recorder.spans_dropped()),
                 recorder.span_limit());
  return 0;
}

/// States what a successful run cost the host, on stderr only: wall time,
/// events and their rate, and peak RSS (`ru_maxrss`, KiB on Linux).
void PrintHostCost(double seconds, std::uint64_t events) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double rate = seconds > 0 ? static_cast<double>(events) / seconds / 1e6 : 0.0;
  std::fprintf(stderr, "uvsim: host %.2f s, %llu events (%.2f M events/s), peak RSS %ld MiB\n",
               seconds, static_cast<unsigned long long>(events), rate, usage.ru_maxrss / 1024);
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  const Args args = Parse(argc, argv);
  // The flight recorder brackets the whole run so a dump fires no matter
  // which path exits non-zero (invariant failure, node crash, exception).
  obs::FlightRecorder flight;
  if (!args.flight.empty()) {
    flight.SetDumpPath(args.flight);
    flight.Install();
  }
  // An exception escaping the simulation (engine rethrow of a process
  // failure, bad configuration) must not look like a successful run.
  int rc = 1;
  std::uint64_t events = 0;
  const auto start = std::chrono::steady_clock::now();
  try {
    rc = Run(args, events);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uvsim: uncaught exception: %s\n", e.what());
    obs::FlightNote(0, "crash", e.what());
  } catch (...) {
    std::fprintf(stderr, "uvsim: uncaught non-standard exception\n");
    obs::FlightNote(0, "crash", "non-standard exception");
  }
  if (rc == 0)
    PrintHostCost(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(), events);
  // Earlier dumps (invariant failure, node crash) keep their more specific
  // reason; "nonzero-exit" is the backstop for every other failing path.
  if (rc != 0 && flight.installed()) {
    if (flight.dumps() == 0)
      if (Status s = flight.Dump("nonzero-exit"); !s.ok())
        std::fprintf(stderr, "uvsim: flight dump failed: %s\n", s.ToString().c_str());
    if (flight.dumps() > 0)
      std::fprintf(stderr, "uvsim: flight recorder dumped to %s (reason: %s)\n",
                   flight.dump_path().c_str(), flight.last_reason().c_str());
  }
  return rc;
}
