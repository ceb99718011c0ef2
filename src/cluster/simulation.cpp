#include "src/cluster/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "src/fault/injector.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/parallel_for.hpp"

namespace uvs::cluster {

namespace {

/// Walltime estimate fed to backfill: solo time x this fudge.
constexpr double kEstimateFudge = 3.0;

std::string FmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Memoization key: every job field that shapes the solo run.
std::string SoloKey(const JobSpec& spec, int width, Bytes bb_grant) {
  return std::string(JobKindName(spec.kind)) + "/" + workload::SystemKindName(spec.system) +
         "/p" + std::to_string(spec.procs) + "/b" + std::to_string(spec.bytes_per_rank) + "/s" +
         std::to_string(spec.steps) + "/c" + FmtDouble(spec.compute_time) + "/l" +
         std::to_string(spec.first_layer) + "/w" + std::to_string(width) + "/g" +
         std::to_string(bb_grant) + "/e" + (spec.ec ? "1" : "0");
}

}  // namespace

ClusterSim::ClusterSim(workload::Scenario& scenario, std::vector<JobSpec> jobs,
                       ClusterOptions options)
    : scenario_(&scenario), options_(std::move(options)) {
  jobs_.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    JobState state;
    state.spec = std::move(spec);
    state.start_event = std::make_unique<sim::Event>(scenario.engine());
    jobs_.push_back(std::move(state));
  }
  qos_.resize(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) qos_[i].id = jobs_[i].spec.id;
  const auto nodes = static_cast<std::size_t>(scenario.cluster().node_count());
  node_free_.assign(nodes, 1);
  node_alive_.assign(nodes, 1);
  bb_capacity_ = scenario.cluster().burst_buffer().total_capacity();
  if (options_.telemetry.enabled) {
    if (options_.telemetry.slos.empty()) options_.telemetry.slos = obs::DefaultSloSpecs();
    for (const obs::SloSpec& spec : options_.telemetry.slos) cluster_slos_.emplace_back(spec);
    job_slo_violated_.assign(jobs_.size(), 0);
  }
}

ClusterSim::~ClusterSim() {
  // The prune hook captures `this`; never leave it dangling on a recorder
  // that outlives the sim.
  if (prune_hook_set_)
    if (obs::Recorder* rec = obs::Recorder::Current()) rec->SetPruneHook(nullptr);
}

void ClusterSim::AttachInjector(fault::Injector& injector) {
  injector_ = &injector;
  injector.set_cluster(&scenario_->cluster());
  injector.AddCrashHandler([this](int node) { OnNodeCrash(node); });
}

int ClusterSim::AliveNodes() const {
  int alive = 0;
  for (char a : node_alive_) alive += a != 0;
  return alive;
}

int ClusterSim::NodesNeeded(const JobSpec& spec) const {
  const int ppn = std::max(options_.procs_per_node, 1);
  const int want = (spec.procs + ppn - 1) / ppn;
  return std::clamp(want, 1, std::max(AliveNodes(), 1));
}

Bytes ClusterSim::ClampedDemand(const JobSpec& spec) const {
  return std::min(spec.BbDemand(), bb_capacity_);
}

const univistor::UniviStor* ClusterSim::system(int job) const {
  return jobs_.at(static_cast<std::size_t>(job)).sut.univistor.get();
}

bool ClusterSim::JobOnNode(int job, int node) const {
  const std::vector<int>& nodes = jobs_.at(static_cast<std::size_t>(job)).nodes;
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

Time ClusterSim::StarvationHorizon() const {
  Time last_arrival = 0;
  Time serial = 0;
  for (const JobState& job : jobs_) {
    last_arrival = std::max(last_arrival, job.spec.arrival);
    serial += std::max(job.solo_elapsed, 1e-3);
  }
  // Serial-execution bound with a generous contention allowance: even a
  // policy that runs every job alone, back to back, with each run inflated
  // 20x by spill and interference, finishes inside this horizon.
  return last_arrival + 10.0 + 20.0 * serial;
}

ClusterSim::SoloShape ClusterSim::ShapeOf(const JobSpec& spec) const {
  const int ppn = std::max(options_.procs_per_node, 1);
  SoloShape shape;
  shape.width = std::clamp((spec.procs + ppn - 1) / ppn, 1,
                           scenario_->cluster().node_count());
  shape.bb_grant = ClampedDemand(spec);
  shape.key = SoloKey(spec, shape.width, shape.bb_grant);
  return shape;
}

void ClusterSim::WarmSoloBaselines() { PrecomputeSolo(); }

void ClusterSim::PrecomputeSolo() {
  if (solo_warmed_) return;
  solo_warmed_ = true;
  // Solo baselines run in private engines; keep their spans and metrics
  // out of the main run's recorder. (The binding is thread-local, so worker
  // threads below start with no recorder either way — uninstalling here
  // makes one worker, which is this thread, see the same.)
  obs::Recorder* recorder = obs::Recorder::Current();
  if (recorder != nullptr) recorder->Uninstall();

  // Distinct job shapes in first-appearance order. Each is one independent
  // contention-free run on a private engine — the unit of the fan-out.
  std::vector<SoloShape> shapes;
  std::vector<const JobSpec*> specs;
  for (const JobState& job : jobs_) {
    SoloShape shape = ShapeOf(job.spec);
    if (solo_memo_.find(shape.key) != solo_memo_.end()) continue;
    bool seen = false;
    for (const SoloShape& s : shapes) seen = seen || s.key == shape.key;
    if (seen) continue;
    specs.push_back(&job.spec);
    shapes.push_back(std::move(shape));
  }

  std::vector<SoloStats> baselines(shapes.size());
  sim::ParallelFor(shapes.size(), options_.solo_workers, [&](std::size_t i) {
    baselines[i] = SoloRunUncached(*specs[i], shapes[i]);
  });
  // Merge in first-appearance order: each entry is a pure function of its
  // key, so the memo — and everything scheduled off it — is the same at
  // any worker count.
  for (std::size_t i = 0; i < shapes.size(); ++i)
    solo_memo_.emplace(shapes[i].key, baselines[i]);

  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const SoloStats& stats = solo_memo_.at(ShapeOf(jobs_[i].spec).key);
    jobs_[i].solo_elapsed = stats.elapsed;
    jobs_[i].solo_flush_wait = stats.flush_wait;
    qos_[i].solo_time = stats.elapsed;
  }
  if (recorder != nullptr) recorder->Install();
}

ClusterSim::SoloStats ClusterSim::SoloRunUncached(const JobSpec& spec, const SoloShape& shape) {
  const int width = shape.width;
  const Bytes bb_grant = shape.bb_grant;

  workload::ScenarioOptions opts;
  opts.procs = scenario_->options().procs;
  opts.policy = scenario_->options().policy;
  opts.workflow_enabled = scenario_->options().workflow_enabled;
  opts.cluster_params = scenario_->cluster().params();
  workload::Scenario solo(opts);

  JobState job;
  job.spec = spec;
  job.spec.arrival = 0;
  job.nodes.resize(static_cast<std::size_t>(width));
  for (int n = 0; n < width; ++n) job.nodes[static_cast<std::size_t>(n)] = n;
  job.bb_grant = bb_grant;

  solo.engine().Spawn(ExecuteJob(solo, job, /*live=*/false), "solo-" + spec.Name());
  solo.engine().Run();

  SoloStats stats;
  stats.elapsed = job.finished >= 0 ? job.finished : solo.engine().Now();
  // Contention-free drain baseline: total seconds this job's flushes (BB ->
  // PFS drains, including the flush-on-close wait) take when it runs alone.
  const univistor::UniviStor* sys = job.sut.univistor.get();
  stats.flush_wait = sys != nullptr ? sys->flush_stats().total_flush_time : 0;
  return stats;
}

void ClusterSim::Run() {
  PrecomputeSolo();
  // Tail-based retention: installed after PrecomputeSolo (which swaps the
  // recorder out around the solo baselines) so the hook sees the live run.
  if (options_.telemetry.enabled)
    if (obs::Recorder* rec = obs::Recorder::Current()) {
      rec->SetPruneHook([this](obs::Recorder& r) { return PruneSpans(r); });
      prune_hook_set_ = true;
    }
  sim::Engine& engine = scenario_->engine();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const int idx = static_cast<int>(i);
    engine.Schedule(jobs_[i].spec.arrival, [this, idx] {
      scenario_->engine().Spawn(JobLifecycle(idx),
                                "cluster-" + jobs_[static_cast<std::size_t>(idx)].spec.Name());
    });
  }
  engine.Run();
}

sim::Task ClusterSim::JobLifecycle(int idx) {
  JobState& job = jobs_[static_cast<std::size_t>(idx)];
  JobQos& qos = qos_[static_cast<std::size_t>(idx)];
  sim::Engine& engine = scenario_->engine();

  ++arrived_;
  obs::Count("cluster.jobs_arrived");
  qos.arrival = engine.Now();
  obs::FlightNote(qos.arrival, "cluster", "arrive " + job.spec.Name(),
                  static_cast<double>(job.spec.procs), TenantKey(job.spec));
  {
    obs::SpanTimer pending_span(engine, "cluster", "job.pending",
                                obs::Track::ClusterJob(job.spec.id));
    EnqueueAndSchedule(idx);
    co_await job.start_event->Wait();
  }

  qos.start = engine.Now();
  qos.bb_granted = job.bb_grant;
  qos.nodes_granted = static_cast<int>(job.nodes.size());
  obs::Count("cluster.jobs_started");
  {
    obs::SpanTimer run_span(engine, "cluster", "job.run", obs::Track::ClusterJob(job.spec.id),
                            job.spec.TotalBytes());
    co_await ExecuteJob(*scenario_, job, /*live=*/true);
  }
  OnJobFinish(idx);
}

sim::Task ClusterSim::ExecuteJob(workload::Scenario& sc, JobState& job, bool live) {
  const JobSpec& spec = job.spec;
  univistor::Config cfg = options_.base_config;
  cfg.first_cache_layer = static_cast<hw::Layer>(spec.first_layer);
  // A zero grant must mean "no BB layer", but bb_capacity_limit == 0
  // means "the whole BB" — 1 byte is below any chunk size, so the
  // cascade drops the BB log and spills to the PFS instead.
  cfg.bb_capacity_limit = std::max<Bytes>(job.bb_grant, 1);
  // Per-job EC opt-in layers onto the base config's shard counts (which
  // default to 4+2; Pfs::Create clamps to the machine's OST count).
  if (spec.ec) cfg.ec.enabled = true;
  job.sut = workload::BuildSystem(sc, spec.system, cfg);
  univistor::UniviStor* sys = job.sut.univistor.get();
  if (live && sys != nullptr) {
    for (int n = 0; n < static_cast<int>(node_alive_.size()); ++n)
      if (node_alive_[static_cast<std::size_t>(n)] == 0) sys->FailNode(n);
    if (injector_ != nullptr) sys->AttachFaults(injector_);
  }
  vmpi::AdioDriver* driver = job.sut.driver.get();

  job.program = sc.runtime().LaunchProgramOn(spec.Name(), spec.procs, job.nodes);
  if (live) {
    // Span attribution for the tail-retention prune hook: the job's clients
    // and its storage servers. Solo baseline programs run on private
    // engines and never get here.
    const int idx = static_cast<int>(&job - jobs_.data());
    program_job_[job.program] = idx;
    if (sys != nullptr) program_job_[sys->server_program()] = idx;
    if (job.sut.data_elevator) program_job_[job.sut.data_elevator->server_program()] = idx;
    obs::FlightNote(sc.engine().Now(), "cluster", "start " + spec.Name(),
                    static_cast<double>(job.nodes.size()));
  }

  if (spec.kind == JobKind::kVpic) {
    workload::VpicParams params;
    params.steps = spec.steps;
    params.vars = 4;
    params.bytes_per_var = std::max<Bytes>(spec.bytes_per_rank / 4, 1);
    params.compute_time = spec.compute_time;
    params.file_prefix = spec.Name();
    job.vpic = std::make_unique<workload::VpicRun>(sc, job.program, *driver, params);
    job.vpic->Start();
    co_await job.vpic->done().Wait();
  } else {
    const bool read_back = spec.kind == JobKind::kMicroReadBack;
    job.files.push_back(std::make_unique<h5lite::H5File>(
        sc.runtime(), job.program, spec.Name() + ".h5", vmpi::FileMode::kWriteOnly, *driver,
        std::vector<h5lite::DatasetSpec>{{"data", 8, spec.bytes_per_rank / 8}}));
    job.ranks_left = spec.procs;
    job.ranks_done = std::make_unique<sim::Event>(sc.engine());
    for (int r = 0; r < spec.procs; ++r)
      sc.engine().Spawn(MicroRank(job, r, read_back),
                        spec.Name() + "-rank" + std::to_string(r));
    co_await job.ranks_done->Wait();
  }
  job.client_done = sc.engine().Now();
  baselines::DataElevator* de = job.sut.data_elevator.get();
  if (sys != nullptr) co_await sys->WaitAllFlushes();
  if (de != nullptr) co_await de->WaitAllFlushes();
  job.finished = sc.engine().Now();
  // Storage servers are job-scoped: the job's clients and servers leave the
  // node schedulers with it, so later tenants never share a core with them.
  sc.runtime().RetireProgram(job.program);
  if (sys != nullptr) sc.runtime().RetireProgram(sys->server_program());
  if (de != nullptr) sc.runtime().RetireProgram(de->server_program());
}

sim::Task ClusterSim::MicroRank(JobState& job, int rank, bool read_back) {
  h5lite::H5File& file = *job.files.front();
  co_await file.Open(rank);
  for (int d = 0; d < file.dataset_count(); ++d) co_await file.WriteSlice(rank, d);
  if (read_back)
    for (int d = 0; d < file.dataset_count(); ++d) co_await file.ReadSlice(rank, d);
  co_await file.Close(rank);
  if (--job.ranks_left == 0) job.ranks_done->Trigger();
}

void ClusterSim::EnqueueAndSchedule(int idx) {
  pending_.push_back(idx);
  obs::SetGauge("cluster.queue_depth", static_cast<double>(pending_.size()));
  TrySchedule();
}

void ClusterSim::TrySchedule() {
  if (pending_.empty()) return;
  SchedState state;
  state.now = scenario_->engine().Now();
  for (std::size_t n = 0; n < node_free_.size(); ++n)
    state.free_nodes += node_free_[n] != 0 && node_alive_[n] != 0;
  state.bb_free = bb_capacity_ - bb_reserved_;
  for (int idx : pending_) {
    const JobState& job = jobs_[static_cast<std::size_t>(idx)];
    SchedJob sched;
    sched.id = idx;
    sched.nodes_needed = NodesNeeded(job.spec);
    sched.bb_demand = ClampedDemand(job.spec);
    sched.est_runtime = std::max(job.solo_elapsed, 1e-3) * kEstimateFudge;
    state.pending.push_back(sched);
  }
  for (const JobState& job : jobs_) {
    if (!job.started || job.completed) continue;
    RunningJob running;
    running.est_finish = job.est_finish;
    for (int node : job.nodes) running.nodes += node_alive_[static_cast<std::size_t>(node)] != 0;
    running.bb_reserved = job.bb_grant;
    state.running.push_back(running);
  }

  const std::vector<Admission> admissions = Decide(state, options_.policy);
  for (const Admission& adm : admissions) {
    JobState& job = jobs_[static_cast<std::size_t>(adm.id)];
    job.nodes.clear();
    for (std::size_t n = 0; n < node_free_.size() && static_cast<int>(job.nodes.size()) < adm.nodes;
         ++n) {
      if (node_free_[n] == 0 || node_alive_[n] == 0) continue;
      node_free_[n] = 0;
      job.nodes.push_back(static_cast<int>(n));
    }
    assert(static_cast<int>(job.nodes.size()) == adm.nodes);
    job.bb_grant = adm.bb_grant;
    bb_reserved_ += adm.bb_grant;
    peak_bb_reserved_ = std::max(peak_bb_reserved_, bb_reserved_);
    assert(bb_reserved_ <= bb_capacity_);
    job.est_finish =
        state.now + std::max(job.solo_elapsed, 1e-3) * kEstimateFudge;
    job.started = true;
    pending_.erase(std::find(pending_.begin(), pending_.end(), adm.id));
    job.start_event->Trigger();
  }
  obs::SetGauge("cluster.queue_depth", static_cast<double>(pending_.size()));
  obs::SetGauge("cluster.bb_reserved_bytes", static_cast<double>(bb_reserved_));
}

void ClusterSim::OnJobFinish(int idx) {
  JobState& job = jobs_[static_cast<std::size_t>(idx)];
  JobQos& qos = qos_[static_cast<std::size_t>(idx)];
  job.completed = true;
  ++completed_;
  qos.finish = scenario_->engine().Now();
  // Seconds this job's flush drains took beyond its contention-free solo
  // drains: BB drain interference from co-running tenants.
  const univistor::UniviStor* sys = job.sut.univistor.get();
  const Time drain = sys != nullptr ? sys->flush_stats().total_flush_time
                                    : (job.client_done >= 0 ? qos.finish - job.client_done : 0);
  qos.drain_interference = std::max(0.0, drain - job.solo_flush_wait);
  if (sys != nullptr) {
    for (int f = 0; f < sys->file_count(); ++f)
      qos.bytes_written += sys->BytesWritten(static_cast<storage::FileId>(f));
    qos.lost_bytes = sys->lost_bytes();
  } else {
    qos.bytes_written = job.spec.TotalBytes();
  }
  for (int node : job.nodes)
    if (node_alive_[static_cast<std::size_t>(node)] != 0)
      node_free_[static_cast<std::size_t>(node)] = 1;
  assert(bb_reserved_ >= job.bb_grant);
  bb_reserved_ -= job.bb_grant;
  obs::Count("cluster.jobs_completed");
  obs::Observe("cluster.stretch", qos.stretch());
  obs::Observe("cluster.wait", qos.wait());
  obs::SetGauge("cluster.bb_reserved_bytes", static_cast<double>(bb_reserved_));
  obs::FlightNote(qos.finish, "cluster", "finish " + job.spec.Name(), qos.stretch(),
                  TenantKey(job.spec));
  RecordTelemetry(idx);
  TrySchedule();
}

std::string ClusterSim::TenantKey(const JobSpec& spec) {
  return std::string(workload::SystemKindName(spec.system)) + "/" + JobKindName(spec.kind);
}

void ClusterSim::RecordTelemetry(int idx) {
  if (!options_.telemetry.enabled) return;
  const JobState& job = jobs_[static_cast<std::size_t>(idx)];
  const JobQos& qos = qos_[static_cast<std::size_t>(idx)];
  const Time now = qos.finish;
  const std::string tenant = TenantKey(job.spec);
  auto [it, inserted] = tenants_.try_emplace(tenant);
  TenantTelemetry& tt = it->second;
  if (inserted)
    for (const obs::SloSpec& spec : options_.telemetry.slos) tt.slos.emplace_back(spec);

  tt.stretch.Add(qos.stretch());
  tt.wait.Add(qos.wait());

  bool violated = false;
  for (std::size_t s = 0; s < options_.telemetry.slos.size(); ++s) {
    const obs::SloSpec& spec = options_.telemetry.slos[s];
    double value = 0.0;
    if (spec.metric == "stretch") value = qos.stretch();
    else if (spec.metric == "wait") value = qos.wait();
    else if (spec.metric == "lost") value = static_cast<double>(qos.lost_bytes);
    cluster_slos_[s].Record(now, value);
    const bool bad = tt.slos[s].Record(now, value);
    const std::string label = spec.Label();
    obs::Count(("cluster.slo." + label + (bad ? ".bad" : ".good")).c_str());
    if (bad) {
      violated = true;
      obs::FlightNote(now, "slo", label + " " + job.spec.Name(), value, tenant);
    }
  }
  job_slo_violated_[static_cast<std::size_t>(idx)] = violated ? 1 : 0;
}

int ClusterSim::SpanJob(const obs::Track& track) const {
  if (track.kind != obs::Track::Kind::kRank && track.kind != obs::Track::Kind::kMetaServer)
    return -1;
  const auto it = program_job_.find(track.program);
  return it == program_job_.end() ? -1 : it->second;
}

std::size_t ClusterSim::PruneSpans(obs::Recorder& rec) {
  // Tail-based retention: under the span cap, full rank-level span sets
  // are kept only for interesting jobs — still-running ones, the worst
  // stretch decile so far, and SLO violators. Everything else keeps its
  // two lifecycle spans (pending/run) and loses the rank detail, its
  // servers' included.
  std::vector<double> stretches;
  for (const JobQos& qos : qos_)
    if (qos.completed()) stretches.push_back(qos.stretch());
  if (stretches.empty()) return 0;
  const double cutoff = Quantile(stretches, 0.9);

  std::vector<char> boring(jobs_.size(), 0);
  bool any = false;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobQos& qos = qos_[i];
    if (!qos.completed()) continue;
    if (qos.stretch() >= cutoff) continue;
    if (job_slo_violated_[i] != 0) continue;
    boring[i] = 1;
    any = true;
  }
  if (!any) return 0;

  const std::size_t freed = rec.EraseSpansIf([&](const obs::Recorder::SpanEvent& s) {
    const int j = SpanJob(rec.track(s));
    return j >= 0 && boring[static_cast<std::size_t>(j)] != 0;
  });
  if (freed > 0) obs::Count("cluster.spans_pruned", freed);
  return freed;
}

const obs::QuantileSketch* ClusterSim::TenantStretchSketch(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second.stretch;
}

obs::QuantileSketch ClusterSim::ClusterStretchSketch() const {
  obs::QuantileSketch merged;
  for (const auto& [tenant, tt] : tenants_) merged.Merge(tt.stretch);
  return merged;
}

obs::QuantileSketch ClusterSim::ClusterWaitSketch() const {
  obs::QuantileSketch merged;
  for (const auto& [tenant, tt] : tenants_) merged.Merge(tt.wait);
  return merged;
}

std::string ClusterSim::TelemetryJson() const {
  std::string out = "{\"schema\":\"univistor.telemetry.v1\"";
  out += ",\"relative_error\":" + FmtDouble(obs::QuantileSketch::kDefaultRelativeError);
  out += ",\"tenants\":{";
  bool first = true;
  for (const auto& [tenant, tt] : tenants_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + tenant + "\":{\"stretch\":" + tt.stretch.ToJson() +
           ",\"wait\":" + tt.wait.ToJson() + "}";
  }
  out += "},\"cluster\":{\"stretch\":" + ClusterStretchSketch().ToJson() +
         ",\"wait\":" + ClusterWaitSketch().ToJson() + "}}";
  return out;
}

std::string ClusterSim::SloJson() const {
  std::string out = "{\"schema\":\"univistor.slo.v1\",\"cluster\":[";
  for (std::size_t s = 0; s < cluster_slos_.size(); ++s) {
    if (s > 0) out += ",";
    out += cluster_slos_[s].ToJson();
  }
  out += "],\"tenants\":{";
  bool first = true;
  for (const auto& [tenant, tt] : tenants_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + tenant + "\":[";
    for (std::size_t s = 0; s < tt.slos.size(); ++s) {
      if (s > 0) out += ",";
      out += tt.slos[s].ToJson();
    }
    out += "]";
  }
  out += "}}";
  return out;
}

void ClusterSim::OnNodeCrash(int node) {
  if (node < 0 || node >= static_cast<int>(node_alive_.size())) return;
  if (node_alive_[static_cast<std::size_t>(node)] == 0) return;
  node_alive_[static_cast<std::size_t>(node)] = 0;
  node_free_[static_cast<std::size_t>(node)] = 0;
  obs::Count("cluster.node_crashes");
  // Only jobs actually placed on the crashed node lose extents; everyone
  // else keeps running untouched (the multi-tenant crash-targeting fix).
  for (JobState& job : jobs_) {
    if (!job.started || job.sut.univistor == nullptr) continue;
    if (std::find(job.nodes.begin(), job.nodes.end(), node) == job.nodes.end()) continue;
    job.sut.univistor->FailNode(node);
  }
  TrySchedule();
}

std::string ClusterSim::JobTraceJson() const {
  std::string out;
  out += "{\"schema\":\"uvs-cluster-trace-v1\",";
  out += "\"policy\":\"" + std::string(PolicyName(options_.policy)) + "\",";
  out += "\"nodes\":" + std::to_string(node_alive_.size()) + ",";
  out += "\"bb_capacity\":" + std::to_string(bb_capacity_) + ",";
  out += "\"peak_bb_reserved\":" + std::to_string(peak_bb_reserved_) + ",";
  out += "\"jobs\":[";
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const JobState& job = jobs_[i];
    const JobQos& qos = qos_[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(job.spec.id);
    out += ",\"name\":\"" + job.spec.Name() + "\"";
    out += ",\"kind\":\"" + std::string(JobKindName(job.spec.kind)) + "\"";
    out += ",\"system\":\"" + std::string(workload::SystemKindName(job.spec.system)) +
           "\"";
    out += ",\"procs\":" + std::to_string(job.spec.procs);
    out += ",\"bytes_per_rank\":" + std::to_string(job.spec.bytes_per_rank);
    out += ",\"steps\":" + std::to_string(job.spec.steps);
    out += ",\"first_layer\":" + std::to_string(job.spec.first_layer);
    out += ",\"arrival\":" + FmtDouble(qos.arrival);
    out += ",\"start\":" + FmtDouble(qos.start);
    out += ",\"finish\":" + FmtDouble(qos.finish);
    out += ",\"solo\":" + FmtDouble(qos.solo_time);
    out += ",\"wait\":" + FmtDouble(qos.wait());
    out += ",\"stretch\":" + FmtDouble(qos.stretch());
    out += ",\"bb_demand\":" + std::to_string(ClampedDemand(job.spec));
    out += ",\"bb_granted\":" + std::to_string(qos.bb_granted);
    out += ",\"nodes\":[";
    for (std::size_t n = 0; n < job.nodes.size(); ++n) {
      if (n > 0) out += ",";
      out += std::to_string(job.nodes[n]);
    }
    out += "]";
    out += ",\"bytes_written\":" + std::to_string(qos.bytes_written);
    out += ",\"lost_bytes\":" + std::to_string(qos.lost_bytes);
    out += ",\"drain_interference\":" + FmtDouble(qos.drain_interference);
    out += "}";
  }
  out += "],";
  const QosSummary s = summary();
  out += "\"qos\":{\"jobs\":" + std::to_string(s.jobs);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"mean_stretch\":" + FmtDouble(s.mean_stretch);
  out += ",\"p50_stretch\":" + FmtDouble(s.p50_stretch);
  out += ",\"p99_stretch\":" + FmtDouble(s.p99_stretch);
  out += ",\"mean_wait\":" + FmtDouble(s.mean_wait);
  out += ",\"p99_wait\":" + FmtDouble(s.p99_wait);
  out += ",\"drain_interference\":" + FmtDouble(s.total_drain_interference);
  out += "}}";
  return out;
}

}  // namespace uvs::cluster
