// Arrival processes for multi-tenant mixes: seeded Poisson job mixes and
// trace-driven arrivals parsed from one-line job descriptions.
#pragma once

#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/cluster/job.hpp"

namespace uvs::cluster {

/// Knobs of the seeded mix sampler. Menus are small so smoke-scale
/// machines still see real contention.
struct MixParams {
  int jobs = 8;
  /// Mean of the exponential interarrival draw; 0 lands every job at t=0.
  Time mean_interarrival = 0.01;
  /// Bias the mix toward BB-first jobs (the policy-ordering mixes).
  bool bb_bound = false;
  /// Fraction of jobs running the Lustre baseline instead of UniviStor.
  double lustre_fraction = 0.0;
  /// Fraction of UniviStor jobs whose PFS files are erasure-coded. The
  /// draw happens in a second pass appended after all classic draws, so
  /// the default 0.0 leaves historical mixes bit-identical.
  double ec_fraction = 0.0;
};

/// Deterministically samples a job mix: same (seed, params) -> same mix.
/// New draws must be appended after existing ones so historical seeds keep
/// their mixes (the testkit:: sampler stability discipline).
std::vector<JobSpec> SampleJobMix(std::uint64_t seed, const MixParams& params);

/// Parses one trace line of the form
///   `at=0.25 kind=vpic system=univistor procs=8 mb=4 steps=2 layer=0 ec=1`
/// (any order; `at` and `procs` required, the rest defaulted). `compute`
/// gives the inter-step compute seconds for vpic jobs; `ec` erasure-codes
/// the job's PFS files (UniviStor jobs only). The src/common/key_values.hpp
/// rules apply: each key once, strict numbers, `ec` 0 or 1; times are
/// finite and >= 0, `procs`, `mb` and `steps` >= 1, `layer` 0, 2 or 3.
Result<JobSpec> ParseJobLine(const std::string& line);

/// Parses a whole trace (one job per non-empty line; '#' comments),
/// assigning ids in file order and sorting by arrival time (stable). An
/// error names the line and the key.
Result<std::vector<JobSpec>> ParseJobTrace(const std::string& text);

}  // namespace uvs::cluster
