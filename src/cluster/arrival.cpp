#include "src/cluster/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

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
  bool have_at = false;
  bool have_procs = false;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      return InvalidArgumentError("job token without '=': " + token);
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    try {
      if (key == "at") {
        job.arrival = std::stod(val);
        have_at = true;
      } else if (key == "kind") {
        if (val == "micro") job.kind = JobKind::kMicroWrite;
        else if (val == "micro_read") job.kind = JobKind::kMicroReadBack;
        else if (val == "vpic") job.kind = JobKind::kVpic;
        else return InvalidArgumentError("unknown job kind: " + val);
      } else if (key == "system") {
        if (val == "univistor") job.system = workload::SystemKind::kUniviStor;
        else if (val == "lustre") job.system = workload::SystemKind::kLustre;
        else return InvalidArgumentError("unknown job system: " + val);
      } else if (key == "procs") {
        job.procs = std::stoi(val);
        have_procs = true;
      } else if (key == "mb") {
        job.bytes_per_rank = static_cast<Bytes>(std::stoull(val)) * 1_MiB;
      } else if (key == "steps") {
        job.steps = std::stoi(val);
      } else if (key == "compute") {
        job.compute_time = std::stod(val);
      } else if (key == "layer") {
        job.first_layer = std::stoi(val);
      } else if (key == "ec") {
        job.ec = std::stoi(val) != 0;
      } else {
        return InvalidArgumentError("unknown job key: " + key);
      }
    } catch (const std::exception&) {
      return InvalidArgumentError("bad value for " + key + ": " + val);
    }
  }
  if (!have_at || !have_procs)
    return InvalidArgumentError("job line needs at= and procs=: " + line);
  if (job.arrival < 0 || job.procs < 1 || job.steps < 1 || job.bytes_per_rank < 1 ||
      job.first_layer < 0 || job.first_layer > 3)
    return InvalidArgumentError("job values out of range: " + line);
  return job;
}

Result<std::vector<JobSpec>> ParseJobTrace(const std::string& text) {
  std::vector<JobSpec> jobs;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<JobSpec> job = ParseJobLine(line);
    if (!job.ok()) return job.status();
    job->id = static_cast<int>(jobs.size());
    jobs.push_back(*std::move(job));
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });
  return jobs;
}

}  // namespace uvs::cluster
