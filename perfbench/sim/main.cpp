// perfbench_sim: runs one benchmark workload once in this process and
// prints one JSON object on stdout. perfbench/run.py starts one process per
// run, so each run's peak RSS (read by the parent with wait4) is its own.
//
//   perfbench_sim --workload vpic_spill|workflow|vpic_observed|cluster_mix
//                 --seed N --ranks N [--steps N] [--jobs N]
//                 [--mode run|setup|traced] [--inject-violation]
//
// Every deployment is built from the layers' own public constructors
// (workload::Scenario, univistor::UniviStor + UniviStorDriver,
// workload::VpicRun / BdcatsRun, cluster::ClusterSim); the seed reaches
// the program only as hw::ClusterParams::seed and, for cluster_mix, as the
// jobs' arrival times.
//
// Modes:
//  * run: construct, drain the engine, check, tear down. Reports setup_s
//    (start to the engine's first event), wall_s (construction through
//    teardown, excluding the correctness checks) and the exact counts.
//  * setup: construct only, report setup_s, abandon the engine.
//  * traced: as run, with the driver wrapped in TraceDriver, then replays
//    the recorded calls layer by layer (replay.hpp).
//
// --inject-violation adds a synthetic invariant violation after the run;
// the benchmark's self-test uses it to prove a failing check fails the
// command.
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/alloc_counter.hpp"
#include "sim/replay.hpp"
#include "sim/trace_driver.hpp"
#include "src/cluster/arrival.hpp"
#include "src/cluster/simulation.hpp"
#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/hw/probes.hpp"
#include "src/hw/utilization.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sampler.hpp"
#include "src/testkit/invariants.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/bdcats.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

using namespace uvs;
using perfbench::alloc::Snapshot;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kVars = 8;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Mode { kRun, kSetup, kTraced };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int ranks = 0;
  int steps = 0;
  int jobs = 0;
  Mode mode = Mode::kRun;
  bool inject_violation = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench_sim: %s\n"
               "usage: perfbench_sim --workload vpic_spill|workflow|vpic_observed|cluster_mix\n"
               "                     --seed N --ranks N [--steps N] [--jobs N]\n"
               "                     [--mode run|setup|traced] [--inject-violation]\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t ParseCount(const char* flag, const char* text, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (text[0] == '\0' || text[0] == '-' || *end != '\0' || errno != 0 || value > max)
    Usage(std::string(flag) + " wants an integer in [0, " + std::to_string(max) + "], got '" +
          text + "'");
  return value;
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-violation") {
      args.inject_violation = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = ParseCount("--seed", value, UINT64_MAX);
    else if (flag == "--ranks") args.ranks = static_cast<int>(ParseCount("--ranks", value, 1 << 20));
    else if (flag == "--steps") args.steps = static_cast<int>(ParseCount("--steps", value, 1000));
    else if (flag == "--jobs") args.jobs = static_cast<int>(ParseCount("--jobs", value, 100000));
    else if (flag == "--mode") {
      const std::string mode = value;
      if (mode == "run") args.mode = Mode::kRun;
      else if (mode == "setup") args.mode = Mode::kSetup;
      else if (mode == "traced") args.mode = Mode::kTraced;
      else Usage("unknown --mode " + mode);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const bool vpic_family = args.workload == "vpic_spill" || args.workload == "workflow" ||
                           args.workload == "vpic_observed";
  if (!vpic_family && args.workload != "cluster_mix")
    Usage("unknown --workload '" + args.workload + "'");
  if (args.ranks < 2) Usage("--ranks must be at least 2");
  if (vpic_family && args.steps < 1) Usage("--steps must be at least 1");
  if (!vpic_family && args.jobs < 1) Usage("--jobs must be at least 1");
  return args;
}

/// Resident set of this process right now, in MiB (VmRSS).
double CurrentRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// What one run reports. `exact` values are deterministic model outputs
/// and counts: run.py requires them bit-identical across runs of a seed and
/// between the traced and untraced runs.
struct RunReport {
  std::uint64_t ops = 0;  // operations attempted: MPI-IO verbs, or jobs
  double setup_s = 0;
  double wall_s = 0;
  std::vector<std::pair<std::string, double>> exact;
  std::vector<std::pair<std::string, double>> layer;  // host timings etc.
  testkit::InvariantReport check;

  void Exact(std::string name, double value) { exact.emplace_back(std::move(name), value); }
  void Layer(std::string name, double value) { layer.emplace_back(std::move(name), value); }

  std::string Json() const {
    std::ostringstream out;
    char number[64];
    auto emit = [&](const std::vector<std::pair<std::string, double>>& values) {
      out << "{";
      for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(number, sizeof number, "%.17g",
                      std::isfinite(values[i].second) ? values[i].second : 0.0);
        out << (i ? ", " : "") << JsonString(values[i].first) << ": " << number;
      }
      out << "}";
    };
    out << "{\"ok\": " << (check.ok() ? "true" : "false") << ", \"violations\": [";
    for (std::size_t i = 0; i < check.violations.size() && i < 20; ++i)
      out << (i ? ", " : "")
          << JsonString("[" + check.violations[i].invariant + "] " + check.violations[i].detail);
    std::snprintf(number, sizeof number, "%llu", static_cast<unsigned long long>(ops));
    out << "], \"ops\": " << number;
    std::snprintf(number, sizeof number, "%.17g", setup_s);
    out << ", \"setup_s\": " << number;
    std::snprintf(number, sizeof number, "%.17g", wall_s);
    out << ", \"wall_s\": " << number << ", \"exact\": ";
    emit(exact);
    out << ", \"layer\": ";
    emit(layer);
    out << "}";
    return out.str();
  }
};

/// Host time of the whole run minus the stretches spent on the
/// benchmark's own checks and bookkeeping; heap allocations likewise.
class RunMeter {
 public:
  void Start() {
    start_ = Clock::now();
    allocs_start_ = perfbench::alloc::Now();
  }
  void Pause() {
    pause_start_ = Clock::now();
    pause_allocs_ = perfbench::alloc::Now();
  }
  void Resume() {
    paused_s_ += Since(pause_start_);
    excluded_ += perfbench::alloc::Now() - pause_allocs_;
  }
  void Exclude(const Snapshot& allocs) { excluded_ += allocs; }
  double Elapsed() const { return Since(start_) - paused_s_; }
  Snapshot Allocs() const {
    Snapshot total = perfbench::alloc::Now() - allocs_start_;
    total.count -= excluded_.count;
    total.bytes -= excluded_.bytes;
    return total;
  }

 private:
  Clock::time_point start_;
  Clock::time_point pause_start_;
  Snapshot allocs_start_;
  Snapshot pause_allocs_;
  Snapshot excluded_;
  double paused_s_ = 0;
};

/// Storage/metadata counts summed over every UniviStor instance of a run.
struct SystemTotals {
  std::uint64_t records = 0;
  std::uint64_t max_partition_records = 0;
  std::uint64_t chains = 0;
  std::array<Bytes, hw::kLayerCount> placed{};
  int flushes = 0;
  Bytes flushed = 0;
  Time flush_time = 0;
  Bytes lost = 0;

  void Add(const univistor::UniviStor& system, vmpi::Runtime& runtime) {
    const meta::DistributedMetadataService& md = system.metadata();
    records += md.TotalRecords();
    for (int s = 0; s < md.server_count(); ++s)
      max_partition_records = std::max<std::uint64_t>(max_partition_records, md.RecordCount(s));
    for (int f = 0; f < system.file_count(); ++f) {
      const auto fid = static_cast<storage::FileId>(f);
      for (int layer = 0; layer < hw::kLayerCount; ++layer)
        placed[static_cast<std::size_t>(layer)] += system.CachedOn(fid, static_cast<hw::Layer>(layer));
      for (int p = 0; p < runtime.program_count(); ++p) {
        if (runtime.IsServer(p)) continue;
        for (int r = 0; r < runtime.ProgramSize(p); ++r)
          if (system.FindChain(fid, univistor::MakeProducer(p, r)) != nullptr) ++chains;
      }
    }
    flushes += system.flush_stats().flushes;
    flushed += system.flush_stats().bytes_flushed;
    flush_time += system.flush_stats().total_flush_time;
    lost += system.lost_bytes();
  }
};

/// Exact outputs shared by every workload: engine counters, storage and
/// metadata totals, EC and device busy time.
void ReportModel(workload::Scenario& scenario, const SystemTotals& totals, std::uint64_t writes,
                 RunReport& out) {
  const sim::Engine& engine = scenario.engine();
  const double events = static_cast<double>(engine.processed_events());
  const double cancelled = static_cast<double>(engine.cancelled_events());
  out.Exact("sim.events", events);
  out.Exact("sim.events_cancelled", cancelled);
  out.Exact("sim.cancel_frac", events + cancelled > 0 ? cancelled / (events + cancelled) : 0.0);
  out.Exact("sim.heap_peak", static_cast<double>(engine.heap_peak()));
  out.Exact("sim.processes",
            static_cast<double>(engine.frames_reclaimed() + engine.live_processes()));

  out.Exact("meta.records", static_cast<double>(totals.records));
  out.Exact("meta.records_per_write",
            writes > 0 ? static_cast<double>(totals.records) / static_cast<double>(writes) : 0.0);
  out.Exact("meta.max_partition_records", static_cast<double>(totals.max_partition_records));
  out.Exact("placement.chains", static_cast<double>(totals.chains));

  const auto placed = [&](hw::Layer layer) {
    return static_cast<double>(totals.placed[static_cast<std::size_t>(layer)]);
  };
  const double dram = placed(hw::Layer::kDram) + placed(hw::Layer::kNodeLocalSsd);
  const double bb = placed(hw::Layer::kSharedBurstBuffer);
  const double pfs = placed(hw::Layer::kPfs);
  out.Exact("storage.dram_mb", dram / kMiB);
  out.Exact("storage.bb_mb", bb / kMiB);
  out.Exact("storage.pfs_mb", pfs / kMiB);
  out.Exact("storage.spill_frac", dram + bb + pfs > 0 ? (bb + pfs) / (dram + bb + pfs) : 0.0);
  out.Exact("storage.flushes", totals.flushes);
  out.Exact("storage.flush_mb", static_cast<double>(totals.flushed) / kMiB);
  out.Exact("storage.flush_sim_s", totals.flush_time);
  const storage::Pfs::EcStats& ec = scenario.pfs().ec_stats();
  out.Exact("storage.ec_rmw_stripes", static_cast<double>(ec.rmw_stripes));
  out.Exact("storage.ec_parity_mb", static_cast<double>(ec.parity_bytes) / kMiB);
  out.Exact("univistor.lost_mb", static_cast<double>(totals.lost) / kMiB);

  const hw::UtilizationReport use = hw::CollectUtilization(scenario.cluster());
  out.Exact("hw.ost_busy_sim_s", use.ost.busy_time);
  out.Exact("hw.bb_busy_sim_s", use.bb.busy_time);
  out.Exact("hw.dram_busy_sim_s", use.dram.busy_time);
  out.Exact("hw.nic_busy_sim_s", use.nic_tx.busy_time + use.nic_rx.busy_time);
}

void ReportRecorder(const obs::Recorder* recorder, RunReport& out) {
  const double spans = recorder ? static_cast<double>(recorder->span_count()) : 0.0;
  const double dropped = recorder ? static_cast<double>(recorder->spans_dropped()) : 0.0;
  const double pruned = recorder ? static_cast<double>(recorder->spans_pruned()) : 0.0;
  out.Exact("obs.spans", spans);
  out.Exact("obs.spans_dropped", dropped);
  out.Exact("obs.retained_frac", spans + dropped + pruned > 0 ? spans / (spans + dropped + pruned)
                                                              : 0.0);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// vmpi.* from the decorator's log; zeros when no decorator was used.
void ReportDriverCalls(const perfbench::TraceDriver* tracer, std::uint64_t expected_ops,
                       RunReport& out) {
  std::array<double, 4> count{};
  double write_bytes = 0;
  double read_bytes = 0;
  double failed = 0;
  std::array<std::vector<double>, 4> latency;
  if (tracer != nullptr) {
    for (const perfbench::DriverCall& call : tracer->calls()) {
      const auto verb = static_cast<std::size_t>(call.verb);
      ++count[verb];
      if (!call.ok || call.end < call.start) {
        ++failed;
        continue;
      }
      latency[verb].push_back(call.end - call.start);
      if (call.verb == perfbench::Verb::kWrite) write_bytes += static_cast<double>(call.len);
      if (call.verb == perfbench::Verb::kRead) read_bytes += static_cast<double>(call.len);
    }
    if (tracer->calls().size() != expected_ops)
      out.check.Add("driver-calls", "decorator saw " + std::to_string(tracer->calls().size()) +
                                        " verbs, the workload issues " +
                                        std::to_string(expected_ops));
  }
  using perfbench::Verb;
  const auto idx = [](Verb v) { return static_cast<std::size_t>(v); };
  out.Exact("vmpi.opens", count[idx(Verb::kOpen)]);
  out.Exact("vmpi.writes", count[idx(Verb::kWrite)]);
  out.Exact("vmpi.reads", count[idx(Verb::kRead)]);
  out.Exact("vmpi.closes", count[idx(Verb::kClose)]);
  out.Exact("vmpi.write_mb", write_bytes / kMiB);
  out.Exact("vmpi.read_mb", read_bytes / kMiB);
  out.Exact("vmpi.failed_ops", failed);
  out.Exact("vmpi.write_p50_sim_s", Percentile(latency[idx(Verb::kWrite)], 0.50));
  out.Exact("vmpi.write_p99_sim_s", Percentile(latency[idx(Verb::kWrite)], 0.99));
  out.Exact("vmpi.read_p99_sim_s", Percentile(latency[idx(Verb::kRead)], 0.99));
  out.Exact("vmpi.close_p99_sim_s", Percentile(latency[idx(Verb::kClose)], 0.99));
}

/// Host seconds of the benchmark's own calls into each layer.
struct CallTimes {
  double run_s = 0;  // the call that drains the engine (ClusterSim::Run for clusters)
  double univistor_build_s = 0;  // UniviStor + UniviStorDriver constructors
  double univistor_teardown_s = 0;
  double workload_build_s = 0;  // Scenario + workload (or ClusterSim) constructors
  double workload_teardown_s = 0;
  double analyze_s = 0;  // obs::Analyze
  double export_s = 0;   // attribution text and JSON, metrics run report
  double report_kb = 0;
  double solo_warm_s = 0;  // ClusterSim::WarmSoloBaselines
  bool cluster = false;
};

/// What the replays need from the live run, read before teardown.
struct LiveRun {
  const perfbench::TraceDriver* tracer = nullptr;  // traced VPIC-family runs only
  perfbench::ReplayLayout layout;
  SystemTotals totals;
  Bytes read_bytes = 0;
  std::uint64_t events = 0;
  std::size_t heap_peak = 0;
};

/// Emits the host-side per-layer metrics; in traced mode runs the replays
/// and checks that they rebuilt exactly the live run's structures.
void ReportHost(const Args& args, const CallTimes& calls, const RunMeter& meter,
                double rss_run_mb, const LiveRun& live, RunReport& out) {
  const Snapshot allocs = meter.Allocs();
  out.Exact("mem.allocs", static_cast<double>(allocs.count));
  out.Exact("mem.alloc_mb", static_cast<double>(allocs.bytes) / kMiB);
  out.Layer("mem.rss_run_mb", rss_run_mb);
  out.Layer("univistor.build_s", calls.univistor_build_s);
  out.Layer("univistor.teardown_s", calls.univistor_teardown_s);
  out.Layer("workload.build_s", calls.workload_build_s);
  out.Layer("workload.teardown_s", calls.workload_teardown_s);
  out.Layer("obs.analyze_s", calls.analyze_s);
  out.Layer("obs.export_s", calls.export_s);
  out.Layer("obs.report_kb", calls.report_kb);
  out.Layer("cluster.solo_warm_s", calls.solo_warm_s);
  out.Layer("cluster.run_s", calls.cluster ? calls.run_s : 0.0);
  out.Layer("sim.run_s", calls.run_s);
  out.Layer("sim.ns_per_event",
            live.events > 0 ? calls.run_s * 1e9 / static_cast<double>(live.events) : 0.0);

  perfbench::StorageReplay storage;
  if (live.tracer != nullptr) {
    storage = perfbench::ReplayStorage(live.tracer->calls(), live.layout);
    const SystemTotals& run = live.totals;
    if (storage.records != run.records || storage.chains != run.chains ||
        storage.max_partition_records != run.max_partition_records ||
        storage.placed != run.placed)
      out.check.Add("replay", "replayed " + std::to_string(storage.records) + " records / " +
                                  std::to_string(storage.chains) + " chains, the run holds " +
                                  std::to_string(run.records) + " / " +
                                  std::to_string(run.chains));
    if (storage.queried_bytes != live.read_bytes)
      out.check.Add("replay", "read lookups cover " + std::to_string(storage.queried_bytes) +
                                  " bytes, the run read " + std::to_string(live.read_bytes));
  }
  const double kernel_s =
      args.mode == Mode::kTraced ? perfbench::ReplayKernel(live.events, live.heap_peak) : 0.0;
  out.Layer("sim.kernel_replay_s", kernel_s);
  out.Layer("sim.model_s", calls.run_s - kernel_s);
  out.Layer("meta.insert_replay_s", storage.insert_s);
  out.Layer("meta.insert_ns", storage.records > 0
                                  ? storage.insert_s * 1e9 / static_cast<double>(storage.records)
                                  : 0.0);
  out.Layer("meta.replay_mb", storage.meta_mb);
  out.Layer("meta.query_replay_s", storage.query_s);
  out.Layer("meta.query_ns",
            storage.reads > 0 ? storage.query_s * 1e9 / static_cast<double>(storage.reads) : 0.0);
  out.Layer("placement.chain_replay_s", storage.chain_s);
  out.Layer("placement.chain_replay_mb", storage.chain_mb);
}

// --- VPIC-IO family: vpic_spill, workflow, vpic_observed -----------------

RunReport RunVpicFamily(const Args& args) {
  const bool observed = args.workload == "vpic_observed";
  const bool coupled = args.workload == "workflow";
  const int writers = coupled ? args.ranks / 2 : args.ranks;
  const int readers = coupled ? args.ranks / 2 : 0;
  // fig8 shape: 60 s compute gaps; fig9 overlap shape: back-to-back steps.
  const workload::VpicParams params{.steps = args.steps,
                                    .vars = kVars,
                                    .bytes_per_var = 32_MiB,
                                    .compute_time = coupled ? 0.0 : 60.0};
  RunReport out;
  out.ops = static_cast<std::uint64_t>(writers + readers) *
            static_cast<std::uint64_t>(args.steps) * (kVars + 2);

  workload::ScenarioOptions options;
  options.procs = args.ranks;
  options.policy = sched::PlacementPolicy::kInterferenceAware;
  options.workflow_enabled = coupled;
  options.cluster_params = hw::CoriPreset(args.ranks);
  options.cluster_params.seed = args.seed;

  CallTimes calls;
  RunMeter meter;
  meter.Start();
  const Clock::time_point start = Clock::now();

  // The recorder outlives the scenario: coroutine frames destroyed during
  // engine teardown still emit spans.
  std::unique_ptr<obs::Recorder> recorder;
  if (observed) {
    recorder = std::make_unique<obs::Recorder>();
    recorder->Install();
  }
  Clock::time_point t = Clock::now();
  auto scenario = std::make_unique<workload::Scenario>(options);
  calls.workload_build_s = Since(t);
  sim::Engine& engine = scenario->engine();
  vmpi::Runtime& runtime = scenario->runtime();
  std::unique_ptr<obs::Sampler> sampler;
  if (observed) {
    sampler = std::make_unique<obs::Sampler>(engine, *recorder, 1.0);
    hw::RegisterClusterGauges(*sampler, scenario->cluster());
  }

  t = Clock::now();
  auto system = std::make_unique<univistor::UniviStor>(runtime, scenario->pfs(),
                                                       scenario->workflow(), univistor::Config{});
  auto driver = std::make_unique<univistor::UniviStorDriver>(*system);
  calls.univistor_build_s = Since(t);
  if (sampler) system->RegisterGauges(*sampler);

  vmpi::AdioDriver* io = driver.get();
  std::unique_ptr<perfbench::TraceDriver> tracer;
  if (args.mode == Mode::kTraced) {
    const Snapshot before = perfbench::alloc::Now();
    tracer = std::make_unique<perfbench::TraceDriver>(*driver, engine, out.ops);
    meter.Exclude(perfbench::alloc::Now() - before);
    io = tracer.get();
  }

  const vmpi::ProgramId writer = runtime.LaunchProgram("vpic", writers);
  const vmpi::ProgramId reader = readers > 0 ? runtime.LaunchProgram("bdcats", readers) : -1;
  t = Clock::now();
  auto vpic = std::make_unique<workload::VpicRun>(*scenario, writer, *io, params);
  std::unique_ptr<workload::BdcatsRun> bdcats;
  if (readers > 0)
    bdcats = std::make_unique<workload::BdcatsRun>(
        *scenario, reader, *io,
        workload::BdcatsParams{.producer = params, .producer_ranks = writers});
  calls.workload_build_s += Since(t);
  vpic->Start();
  if (bdcats) bdcats->Start();
  if (sampler) sampler->Kick();
  out.setup_s = Since(start);

  if (args.mode == Mode::kSetup) {
    engine.Abandon();
  } else {
    t = Clock::now();
    try {
      engine.Run();
    } catch (const std::exception& e) {
      out.check.Add("run", std::string("engine.Run threw: ") + e.what());
      engine.Abandon();
    }
    calls.run_s = Since(t);
  }

  // --- checks and exact outputs, outside the timed region ----------------
  meter.Pause();
  const double rss_run_mb = CurrentRssMb();
  LiveRun live;
  if (args.mode != Mode::kSetup) {
    testkit::CheckQuiescence(engine, out.check);
    testkit::CheckPoolConservation(*scenario, out.check);
    testkit::CheckUniviStor(*system, out.check);
    if (!vpic->finished()) out.check.Add("workload", "VPIC-IO did not finish");
    if (bdcats && !bdcats->finished()) out.check.Add("workload", "BD-CATS-IO did not finish");
    if (args.inject_violation) out.check.Add("injected", "synthetic violation (--inject-violation)");

    live.totals.Add(*system, runtime);
    live.events = engine.processed_events();
    live.heap_peak = engine.heap_peak();
    ReportModel(*scenario, live.totals,
                static_cast<std::uint64_t>(writers) * static_cast<std::uint64_t>(args.steps) * kVars,
                out);
    ReportRecorder(recorder.get(), out);
    for (const char* name : {"cluster.jobs", "cluster.jobs_completed", "cluster.mean_stretch",
                             "cluster.p99_wait_sim_s", "cluster.peak_bb_mb"})
      out.Exact(name, 0);
    const workload::VpicResult& written = vpic->result();
    out.Exact("workload.write_sim_s", written.write_time);
    out.Exact("workload.flush_wait_sim_s", written.final_flush_wait);
    out.Exact("workload.total_io_sim_s", written.total_io_time);
    out.Exact("workload.read_sim_s", bdcats ? bdcats->result().read_time : 0.0);
    out.Exact("workload.elapsed_sim_s",
              std::max(written.elapsed, bdcats ? bdcats->result().elapsed : 0.0));
    ReportDriverCalls(tracer.get(), out.ops, out);

    if (tracer) {
      live.tracer = tracer.get();
      live.read_bytes = bdcats ? bdcats->result().bytes : 0;
      hw::Cluster& cluster = scenario->cluster();
      perfbench::ReplayLayout& layout = live.layout;
      layout.nodes = cluster.node_count();
      layout.servers = system->total_servers();
      layout.dram_capacity = cluster.params().node.dram_cache_capacity;
      layout.bb_capacity = cluster.burst_buffer().total_capacity();
      layout.chunk_size = system->config().chunk_size;
      layout.range_size = system->config().metadata_range_size;
      for (vmpi::ProgramId p : {writer, reader}) {
        if (p < 0) continue;
        layout.program_size[p] = runtime.ProgramSize(p);
        for (int n = 0; n < layout.nodes; ++n)
          if (int on = runtime.RanksOnNode(p, n); on > 0) layout.ranks_on_node[{p, n}] = on;
      }
      // The replay numbers files in first-seen order, as UniviStor does.
      for (std::size_t f = 0; f < tracer->files().size(); ++f)
        if (system->FileName(static_cast<storage::FileId>(f)) != tracer->files()[f])
          out.check.Add("replay", "file order differs at fid " + std::to_string(f));
    }
    if (recorder) {
      // What uvsim records for an observed run before the analysis:
      // kernel-health counters and closed degradation windows.
      obs::Count("sim.events_processed", engine.processed_events());
      obs::Count("sim.events_cancelled", engine.cancelled_events());
      obs::Count("sim.heap_peak", engine.heap_peak());
      obs::Count("sim.frames_reclaimed", engine.frames_reclaimed());
      obs::SetGauge("sim.live_processes", static_cast<double>(engine.live_processes()));
      scenario->cluster().pfs().FlushDegradeSpans();
      scenario->cluster().burst_buffer().FlushDegradeSpans();
    }
  }
  meter.Resume();

  // --- observed: attribution analysis and run-report export --------------
  if (recorder && args.mode != Mode::kSetup) {
    std::vector<obs::JobSpec> jobs;
    for (int p = 0; p < runtime.program_count(); ++p)
      jobs.push_back({p, runtime.ProgramName(p), runtime.IsServer(p), runtime.ProgramSize(p)});
    t = Clock::now();
    const obs::Report attribution = obs::Analyze(*recorder, jobs, engine.Now());
    calls.analyze_s = Since(t);
    t = Clock::now();
    const std::string text = obs::ToText(attribution);
    const std::string report =
        recorder->MetricsJson(engine.Now(), obs::AttributionJson(attribution));
    calls.export_s = Since(t);
    calls.report_kb = static_cast<double>(report.size()) / 1024.0;
    if (text.empty() || report.empty()) out.check.Add("obs", "empty attribution or run report");
  }

  // --- teardown ------------------------------------------------------------
  t = Clock::now();
  bdcats.reset();
  vpic.reset();
  calls.workload_teardown_s = Since(t);
  t = Clock::now();
  driver.reset();
  system.reset();
  calls.univistor_teardown_s = Since(t);
  sampler.reset();
  scenario.reset();
  recorder.reset();
  out.wall_s = meter.Elapsed();
  if (tracer) meter.Exclude(tracer->own_allocs());

  if (args.mode != Mode::kSetup) ReportHost(args, calls, meter, rss_run_mb, live, out);
  return out;
}

// --- cluster_mix -----------------------------------------------------------

/// The cluster_mix input: a fixed tenant population, drawn once by
/// cluster::SampleJobMix (about a quarter Lustre-baseline jobs, a third of
/// the UniviStor jobs erasure-coded), arriving at seeded Poisson times.
/// Fixing the population keeps the work, and the solo shapes the warmup
/// runs, the same for every seed, so runs of different seeds measure the
/// same mix; the seed decides when each job arrives and seeds the machine.
std::vector<cluster::JobSpec> ClusterJobs(std::uint64_t seed, int count) {
  constexpr std::uint64_t kPopulationSeed = 42;  // uvsim --cluster's default mix seed
  constexpr Time kMeanInterarrival = 0.01;       // uvsim --cluster's default
  std::vector<cluster::JobSpec> jobs = cluster::SampleJobMix(
      kPopulationSeed, cluster::MixParams{.jobs = count,
                                          .mean_interarrival = 0,
                                          .lustre_fraction = 0.25,
                                          .ec_fraction = 1.0 / 3.0});
  Rng rng(seed);
  Time clock = 0;
  for (cluster::JobSpec& job : jobs) {
    job.arrival = clock;
    clock -= kMeanInterarrival * std::log(1.0 - rng.NextDouble());
  }
  return jobs;
}

RunReport RunClusterMix(const Args& args) {
  // The testkit-scale contended machine `uvsim --cluster` builds: small
  // per-node caches and a small shared BB, so the mix genuinely contends.
  constexpr int kRanksPerNode = 4;
  workload::ScenarioOptions options;
  options.procs = args.ranks;
  options.policy = sched::PlacementPolicy::kInterferenceAware;
  options.cluster_params = hw::CoriPreset(args.ranks, kRanksPerNode);
  options.cluster_params.node.cores = 8;
  options.cluster_params.node.dram_cache_capacity = 32_MiB;
  options.cluster_params.bb.bb_nodes = 2;
  options.cluster_params.bb.capacity_per_bb_node = 64_MiB;
  options.cluster_params.pfs.osts = 4;
  options.cluster_params.seed = args.seed;

  cluster::ClusterOptions cluster_options;
  cluster_options.policy = cluster::Policy::kBbAware;
  cluster_options.procs_per_node = kRanksPerNode;
  cluster_options.solo_workers = 1;
  cluster_options.base_config.chunk_size = 1_MiB;
  cluster_options.telemetry.enabled = true;

  RunReport out;
  std::vector<cluster::JobSpec> jobs = ClusterJobs(args.seed, args.jobs);
  out.ops = jobs.size();

  CallTimes calls;
  calls.cluster = true;
  RunMeter meter;
  meter.Start();
  const Clock::time_point start = Clock::now();
  Clock::time_point t = Clock::now();
  auto scenario = std::make_unique<workload::Scenario>(options);
  auto sim = std::make_unique<cluster::ClusterSim>(*scenario, std::move(jobs), cluster_options);
  calls.workload_build_s = Since(t);
  t = Clock::now();
  sim->WarmSoloBaselines();
  calls.solo_warm_s = Since(t);
  out.setup_s = Since(start);

  if (args.mode == Mode::kSetup) {
    scenario->engine().Abandon();
  } else {
    t = Clock::now();
    try {
      sim->Run();
    } catch (const std::exception& e) {
      out.check.Add("run", std::string("ClusterSim::Run threw: ") + e.what());
      scenario->engine().Abandon();
    }
    calls.run_s = Since(t);
  }

  meter.Pause();
  const double rss_run_mb = CurrentRssMb();
  LiveRun live;
  if (args.mode != Mode::kSetup) {
    testkit::CheckQuiescence(scenario->engine(), out.check);
    testkit::CheckPoolConservation(*scenario, out.check);
    for (int j = 0; j < sim->job_count(); ++j) {
      if (const univistor::UniviStor* system = sim->system(j)) {
        testkit::CheckUniviStor(*system, out.check);
        live.totals.Add(*system, scenario->runtime());
      }
    }
    testkit::CheckErasure(scenario->pfs(), out.check);
    if (sim->completed_jobs() != sim->job_count())
      out.check.Add("cluster-starvation", std::to_string(sim->job_count() - sim->completed_jobs()) +
                                              " jobs never completed");
    if (sim->peak_bb_reserved() > sim->bb_capacity())
      out.check.Add("cluster-bb-capacity", "peak BB reservation exceeds capacity");
    if (args.inject_violation) out.check.Add("injected", "synthetic violation (--inject-violation)");

    live.events = scenario->engine().processed_events();
    live.heap_peak = scenario->engine().heap_peak();
    // The jobs' writes are not visible outside ClusterSim, so
    // meta.records_per_write reads 0 here, like the vmpi.* counts.
    ReportModel(*scenario, live.totals, /*writes=*/0, out);
    ReportRecorder(nullptr, out);
    const cluster::QosSummary summary = sim->summary();
    out.Exact("cluster.jobs", sim->job_count());
    out.Exact("cluster.jobs_completed", sim->completed_jobs());
    out.Exact("cluster.mean_stretch", summary.mean_stretch);
    out.Exact("cluster.p99_wait_sim_s", summary.p99_wait);
    out.Exact("cluster.peak_bb_mb", static_cast<double>(sim->peak_bb_reserved()) / kMiB);
    // Per-job workload results stay inside ClusterSim; the mix's makespan
    // is the one simulated workload output it exposes.
    for (const char* name : {"workload.write_sim_s", "workload.flush_wait_sim_s",
                             "workload.total_io_sim_s", "workload.read_sim_s"})
      out.Exact(name, 0);
    out.Exact("workload.elapsed_sim_s", scenario->engine().Now());
    ReportDriverCalls(nullptr, 0, out);
  }
  meter.Resume();

  // ~ClusterSim tears down every job's UniviStor, drivers and workload.
  t = Clock::now();
  sim.reset();
  calls.univistor_teardown_s = Since(t);
  scenario.reset();
  out.wall_s = meter.Elapsed();

  if (args.mode != Mode::kSetup) ReportHost(args, calls, meter, rss_run_mb, live, out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  // Model warnings (e.g. PFS lock inflation) are expected at these scales;
  // UVS_LOG_LEVEL still overrides.
  SetLogLevel(LogLevel::kError);
  InitLogLevelFromEnv();
  try {
    const RunReport result =
        args.workload == "cluster_mix" ? RunClusterMix(args) : RunVpicFamily(args);
    std::printf("%s\n", result.Json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
}
