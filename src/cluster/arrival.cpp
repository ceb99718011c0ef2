#include "src/cluster/arrival.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/key_values.hpp"

namespace uvs::cluster {

namespace {

/// Exponential interarrival draw (inverse CDF on a (0,1] uniform so the
/// log argument never hits zero).
Time Exponential(Rng& rng, Time mean) {
  const double u = 1.0 - rng.NextDouble();
  return -mean * std::log(u);
}

template <typename T>
T Pick(Rng& rng, std::initializer_list<T> menu) {
  return *(menu.begin() + rng.NextBelow(menu.size()));
}

bool Chance(Rng& rng, double p) { return rng.NextDouble() < p; }

}  // namespace

std::vector<JobSpec> SampleJobMix(std::uint64_t seed, const MixParams& params) {
  Rng rng(seed ^ 0xc1057e2aull);
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(params.jobs));
  Time clock = 0;
  for (int i = 0; i < params.jobs; ++i) {
    JobSpec job;
    job.id = i;
    job.arrival = clock;
    if (params.mean_interarrival > 0) clock += Exponential(rng, params.mean_interarrival);

    const double kind_draw = rng.NextDouble();
    job.kind = kind_draw < 0.4   ? JobKind::kMicroWrite
               : kind_draw < 0.7 ? JobKind::kMicroReadBack
                                 : JobKind::kVpic;
    job.system = Chance(rng, params.lustre_fraction) ? workload::SystemKind::kLustre
                                                     : workload::SystemKind::kUniviStor;
    job.procs = Pick(rng, {2, 4, 8});
    job.bytes_per_rank = Pick<Bytes>(rng, {1_MiB, 2_MiB, 4_MiB, 8_MiB});
    job.steps = job.kind == JobKind::kVpic ? Pick(rng, {1, 2, 3}) : 1;
    job.compute_time = job.kind == JobKind::kVpic && Chance(rng, 0.5) ? 0.001 : 0.0;
    if (job.system == workload::SystemKind::kUniviStor) {
      // BB-bound mixes mostly start at the burst buffer; balanced mixes
      // mostly run the DRAM cascade.
      job.first_layer = Chance(rng, params.bb_bound ? 0.9 : 0.25) ? 2 : 0;
    }
    jobs.push_back(job);
  }
  // Appended second pass (sampler stability: zero extra draws for classic
  // mixes, and historical seeds keep their jobs when ec_fraction is 0).
  if (params.ec_fraction > 0) {
    for (JobSpec& job : jobs) {
      if (job.system != workload::SystemKind::kUniviStor) continue;
      job.ec = Chance(rng, params.ec_fraction);
    }
  }
  return jobs;
}

Result<JobSpec> ParseJobLine(const std::string& line) {
  JobSpec job;
  KeyValues kv(line);
  kv.Require("at");
  kv.Require("procs");
  kv.Number("at", &job.arrival, 0.0);
  kv.Choice("kind", &job.kind, JobKindName, 3);
  kv.Choice("system", &job.system, workload::SystemKindName, 2);  // no Data Elevator tenants
  kv.Number("procs", &job.procs, 1);
  kv.MiB("mb", &job.bytes_per_rank, 1);
  kv.Number("steps", &job.steps, 1);
  kv.Number("compute", &job.compute_time, 0.0);
  kv.Number("layer", &job.first_layer, 0, 3);
  kv.Bool("ec", &job.ec);
  UVS_RETURN_IF_ERROR(kv.Finish());
  if (job.first_layer == 1)
    return InvalidArgumentError("layer must be 0 (DRAM), 2 (BB), or 3 (PFS)");
  return job;
}

Result<std::vector<JobSpec>> ParseJobTrace(const std::string& text) {
  std::vector<JobSpec> jobs;
  const std::vector<std::string> lines = SplitOn(text, '\n');
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string line = lines[i].substr(0, lines[i].find('#'));
    if (Trim(line).empty()) continue;
    Result<JobSpec> job = ParseJobLine(line);
    if (!job.ok())
      return InvalidArgumentError("line " + std::to_string(i + 1) + ": " + job.status().message());
    job->id = static_cast<int>(jobs.size());
    jobs.push_back(*std::move(job));
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });
  return jobs;
}

}  // namespace uvs::cluster
