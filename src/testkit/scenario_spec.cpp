#include "src/testkit/scenario_spec.hpp"

#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/parse.hpp"
#include "src/common/rng.hpp"
#include "src/fault/plan.hpp"

namespace uvs::testkit {

using workload::SystemKind;

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMicro: return "micro";
    case WorkloadKind::kMicroReadBack: return "micro_read";
    case WorkloadKind::kVpic: return "vpic";
    case WorkloadKind::kWorkflow: return "workflow";
  }
  return "?";
}

const char* FailureModeName(FailureMode mode) {
  switch (mode) {
    case FailureMode::kNone: return "none";
    case FailureMode::kAfterWrites: return "after_writes";
    case FailureMode::kDuringFlush: return "during_flush";
    case FailureMode::kPlan: return "plan";
  }
  return "?";
}

namespace {

// Picks one element of `choices` uniformly.
int Pick(Rng& rng, std::initializer_list<int> choices) {
  return choices.begin()[rng.NextBelow(choices.size())];
}

bool Chance(Rng& rng, double p) { return rng.NextDouble() < p; }

}  // namespace

ScenarioSpec SampleScenario(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;

  // Cluster shape: small on purpose — the fuzzer's value is breadth of
  // configurations, not scale, and caches are sized to force DHP spills.
  spec.procs = Pick(rng, {2, 4, 8, 16});
  spec.procs_per_node = Pick(rng, {2, 4});
  spec.has_ssd = Chance(rng, 0.25);
  spec.ssd_capacity = Pick(rng, {16, 32}) * 1_MiB;
  spec.dram_cache_capacity = Pick(rng, {8, 32, 128}) * 1_MiB;
  spec.bb_nodes = Pick(rng, {2, 3, 4});
  spec.bb_capacity_per_node = Pick(rng, {32, 64, 128}) * 1_MiB;
  spec.osts = Pick(rng, {4, 8, 16, 32});

  const double system_roll = rng.NextDouble();
  spec.system = system_roll < 0.70   ? SystemKind::kUniviStor
                : system_roll < 0.85 ? SystemKind::kLustre
                                     : SystemKind::kDataElevator;

  spec.ia = Chance(rng, 0.75);
  spec.coc = Chance(rng, 0.75);
  spec.adpt = Chance(rng, 0.75);
  spec.la = Chance(rng, 0.75);
  spec.replicate_volatile = Chance(rng, 0.30);
  spec.promote_hot_reads = Chance(rng, 0.30);
  spec.flush_on_close = Chance(rng, 0.75);
  const double layer_roll = rng.NextDouble();
  spec.first_layer = layer_roll < 0.60 ? 0 : layer_roll < 0.80 ? 2 : 3;
  spec.chunk_size = Pick(rng, {1, 2, 4}) * 1_MiB;
  spec.metadata_range_size = Pick(rng, {1, 2, 4}) * 1_MiB;

  const double wl_roll = rng.NextDouble();
  spec.workload = wl_roll < 0.25   ? WorkloadKind::kMicro
                  : wl_roll < 0.60 ? WorkloadKind::kMicroReadBack
                  : wl_roll < 0.85 ? WorkloadKind::kVpic
                                   : WorkloadKind::kWorkflow;
  spec.bytes_per_rank = Pick(rng, {1, 2, 4, 8}) * 1_MiB;
  spec.steps = Pick(rng, {1, 2, 3});
  spec.compute_time = Chance(rng, 0.25) ? 0.001 : 0.0;

  // Failure injection only where the expected outcome is exactly
  // computable: UniviStor with a deterministic read-back phase.
  const bool failure_eligible =
      spec.system == SystemKind::kUniviStor &&
      (spec.workload == WorkloadKind::kMicroReadBack || spec.workload == WorkloadKind::kVpic);
  if (failure_eligible && Chance(rng, 0.20)) {
    spec.failure = Chance(rng, 0.5) ? FailureMode::kAfterWrites : FailureMode::kDuringFlush;
    spec.failed_node = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(spec.Nodes())));
  }

  // Seed-timed fault plans and active recovery (fault::). New draws sit at
  // the very end so every earlier field keeps its historical value for a
  // given seed (repro strings from old corpora stay valid).
  if (spec.system == SystemKind::kUniviStor) {
    if (failure_eligible && spec.failure == FailureMode::kNone && Chance(rng, 0.25)) {
      spec.failure = FailureMode::kPlan;
      Rng plan_rng = rng.Fork();
      spec.fault_plan =
          fault::SamplePlan(plan_rng, spec.Nodes(), spec.osts, spec.bb_nodes).ToString();
    }
    spec.recovery = Chance(rng, 0.30);
  }

  // Multi-tenant cluster mixes (cluster::). Appended after all earlier
  // draws — same stability discipline as the fault-plan block above.
  // Workflow runs stay single-job (the workflow manager pairs programs
  // itself), as do the legacy point-failure modes.
  const bool cluster_eligible =
      spec.system == SystemKind::kUniviStor && spec.workload != WorkloadKind::kWorkflow &&
      (spec.failure == FailureMode::kNone || spec.failure == FailureMode::kPlan) &&
      spec.procs >= 4;
  if (cluster_eligible && Chance(rng, 0.20)) {
    spec.jobs = Pick(rng, {2, 3});
    spec.arrival = Chance(rng, 0.5) ? 0.0 : Pick(rng, {1, 5, 20}) * 0.001;
    spec.csched = Pick(rng, {0, 1, 2});
  }

  // Erasure-coded PFS (storage::Pfs k+m striping). Appended after all
  // earlier draws — same stability discipline as the blocks above.
  if (spec.system == SystemKind::kUniviStor && Chance(rng, 0.25)) {
    static constexpr int kGrid[][2] = {{2, 1}, {3, 2}, {4, 2}, {5, 3}};
    const int* km = kGrid[rng.NextBelow(std::size(kGrid))];
    if (km[0] + km[1] <= spec.osts) {
      spec.ec_k = km[0];
      spec.ec_m = km[1];
    } else {  // osts >= 4 always, so 2+1 fits everywhere
      spec.ec_k = 2;
      spec.ec_m = 1;
    }
    spec.scrub = Chance(rng, 0.5);
    // With parity to absorb shard loss, fault plans draw from the full
    // event menu (ostfail/latent/scrub on top of the legacy kinds).
    if (spec.failure == FailureMode::kPlan) {
      Rng plan_rng = rng.Fork();
      spec.fault_plan =
          fault::SamplePlan(plan_rng, spec.Nodes(), spec.osts, spec.bb_nodes, /*ec=*/true)
              .ToString();
    } else if (failure_eligible && spec.failure == FailureMode::kNone && Chance(rng, 0.35)) {
      spec.failure = FailureMode::kPlan;
      Rng plan_rng = rng.Fork();
      spec.fault_plan =
          fault::SamplePlan(plan_rng, spec.Nodes(), spec.osts, spec.bb_nodes, /*ec=*/true)
              .ToString();
    }
  }
  return spec;
}

std::string ScenarioSpec::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed << " procs=" << procs << " ppn=" << procs_per_node
      << " ssd=" << (has_ssd ? 1 : 0) << " ssd_mb=" << ssd_capacity / 1_MiB
      << " dram_mb=" << dram_cache_capacity / 1_MiB << " bb_nodes=" << bb_nodes
      << " bb_mb=" << bb_capacity_per_node / 1_MiB << " osts=" << osts
      << " system=" << workload::SystemKindName(system) << " ia=" << (ia ? 1 : 0)
      << " coc=" << (coc ? 1 : 0) << " adpt=" << (adpt ? 1 : 0) << " la=" << (la ? 1 : 0)
      << " rep=" << (replicate_volatile ? 1 : 0) << " promo=" << (promote_hot_reads ? 1 : 0)
      << " foc=" << (flush_on_close ? 1 : 0) << " layer=" << first_layer
      << " chunk_mb=" << chunk_size / 1_MiB << " md_mb=" << metadata_range_size / 1_MiB
      << " workload=" << WorkloadKindName(workload) << " mb=" << bytes_per_rank / 1_MiB
      << " steps=" << steps << " compute=" << compute_time
      << " fail=" << FailureModeName(failure) << " fail_node=" << failed_node
      << " recov=" << (recovery ? 1 : 0);
  // Cluster keys print only for multi-job specs so historical single-job
  // strings round-trip unchanged.
  if (jobs > 1)
    out << " jobs=" << jobs << " arrival=" << arrival << " csched=" << csched;
  // EC keys print only when erasure coding is on, same round-trip
  // discipline as the cluster keys.
  if (ec_k > 0) out << " ec=" << ec_k << "+" << ec_m << " scrub=" << (scrub ? 1 : 0);
  if (!fault_plan.empty()) out << " fplan=" << fault_plan;
  return out.str();
}

std::string ScenarioSpec::ReproCommand() const {
  return "uvfuzz --spec='" + ToString() + "'";
}

namespace {

constexpr Bytes kMaxMib = std::numeric_limits<Bytes>::max() / 1_MiB;

}  // namespace

Result<ScenarioSpec> ParseScenarioSpec(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      return InvalidArgumentError("expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);

    if (key == "system") {
      if (value == "univistor") spec.system = SystemKind::kUniviStor;
      else if (value == "lustre") spec.system = SystemKind::kLustre;
      else if (value == "data_elevator") spec.system = SystemKind::kDataElevator;
      else return InvalidArgumentError("unknown system '" + value + "'");
      continue;
    }
    if (key == "workload") {
      if (value == "micro") spec.workload = WorkloadKind::kMicro;
      else if (value == "micro_read") spec.workload = WorkloadKind::kMicroReadBack;
      else if (value == "vpic") spec.workload = WorkloadKind::kVpic;
      else if (value == "workflow") spec.workload = WorkloadKind::kWorkflow;
      else return InvalidArgumentError("unknown workload '" + value + "'");
      continue;
    }
    if (key == "fail") {
      if (value == "none") spec.failure = FailureMode::kNone;
      else if (value == "after_writes") spec.failure = FailureMode::kAfterWrites;
      else if (value == "during_flush") spec.failure = FailureMode::kDuringFlush;
      else if (value == "plan") spec.failure = FailureMode::kPlan;
      else return InvalidArgumentError("unknown failure mode '" + value + "'");
      continue;
    }
    if (key == "fplan") {
      spec.fault_plan = value;
      continue;
    }
    if (key == "ec") {
      const std::size_t plus = value.find('+');
      if (plus == std::string::npos || plus == 0 || plus + 1 == value.size())
        return InvalidArgumentError("ec must be K+M, got '" + value + "'");
      auto k = ParseInt<int>(value.substr(0, plus));
      if (!k.ok()) return k.status();
      auto m = ParseInt<int>(value.substr(plus + 1));
      if (!m.ok()) return m.status();
      spec.ec_k = *k;
      spec.ec_m = *m;
      continue;
    }
    if (key == "compute") {
      auto parsed = ParseDouble(value);
      if (!parsed.ok()) return parsed.status();
      spec.compute_time = *parsed;
      continue;
    }
    if (key == "arrival") {
      auto parsed = ParseDouble(value);
      if (!parsed.ok()) return parsed.status();
      spec.arrival = *parsed;
      continue;
    }
    if (key == "seed") {  // the full uint64 range
      auto parsed = ParseInt<std::uint64_t>(value);
      if (!parsed.ok()) return parsed.status();
      spec.seed = *parsed;
      continue;
    }

    auto parsed = ParseInt<long long>(value);
    if (!parsed.ok()) return parsed.status();
    const long long n = *parsed;
    // Sizes in MiB are checked before scaling to bytes so they cannot wrap.
    // Chunk and metadata-range sizes are divisors, so they must be positive.
    // Every other key fills an int.
    const bool divisor = key == "chunk_mb" || key == "md_mb";
    if (divisor || key == "mb" || key == "dram_mb" || key == "bb_mb" || key == "ssd_mb") {
      const long long min = divisor ? 1 : 0;
      if (n < min) return InvalidArgumentError(key + " must be >= " + std::to_string(min));
      if (static_cast<Bytes>(n) > kMaxMib) return InvalidArgumentError(key + " is too large");
    } else if (n < std::numeric_limits<int>::min() || n > std::numeric_limits<int>::max()) {
      return InvalidArgumentError(key + " is out of range");
    }
    if (key == "procs") spec.procs = static_cast<int>(n);
    else if (key == "ppn") spec.procs_per_node = static_cast<int>(n);
    else if (key == "ssd") spec.has_ssd = n != 0;
    else if (key == "ssd_mb") spec.ssd_capacity = n * 1_MiB;
    else if (key == "dram_mb") spec.dram_cache_capacity = n * 1_MiB;
    else if (key == "bb_nodes") spec.bb_nodes = static_cast<int>(n);
    else if (key == "bb_mb") spec.bb_capacity_per_node = n * 1_MiB;
    else if (key == "osts") spec.osts = static_cast<int>(n);
    else if (key == "ia") spec.ia = n != 0;
    else if (key == "coc") spec.coc = n != 0;
    else if (key == "adpt") spec.adpt = n != 0;
    else if (key == "la") spec.la = n != 0;
    else if (key == "rep") spec.replicate_volatile = n != 0;
    else if (key == "promo") spec.promote_hot_reads = n != 0;
    else if (key == "foc") spec.flush_on_close = n != 0;
    else if (key == "layer") spec.first_layer = static_cast<int>(n);
    else if (key == "chunk_mb") spec.chunk_size = n * 1_MiB;
    else if (key == "md_mb") spec.metadata_range_size = n * 1_MiB;
    else if (key == "mb") spec.bytes_per_rank = n * 1_MiB;
    else if (key == "steps") spec.steps = static_cast<int>(n);
    else if (key == "fail_node") spec.failed_node = static_cast<int>(n);
    else if (key == "recov") spec.recovery = n != 0;
    else if (key == "jobs") spec.jobs = static_cast<int>(n);
    else if (key == "csched") spec.csched = static_cast<int>(n);
    else if (key == "scrub") spec.scrub = n != 0;
    else return InvalidArgumentError("unknown key '" + key + "'");
  }

  if (spec.procs < 1 || spec.procs_per_node < 1)
    return InvalidArgumentError("procs and ppn must be >= 1");
  if (spec.steps < 1) return InvalidArgumentError("steps must be >= 1");
  if (spec.osts < 1) return InvalidArgumentError("osts must be >= 1");
  if (spec.bb_nodes < 0) return InvalidArgumentError("bb_nodes must be >= 0");
  if (spec.first_layer != 0 && spec.first_layer != 2 && spec.first_layer != 3)
    return InvalidArgumentError("layer must be 0 (DRAM), 2 (BB), or 3 (PFS)");
  if (spec.failed_node < 0 || spec.failed_node >= spec.Nodes())
    return InvalidArgumentError("fail_node out of range");
  if ((spec.failure == FailureMode::kPlan) != !spec.fault_plan.empty())
    return InvalidArgumentError("fplan must be set exactly when fail=plan");
  if (!spec.fault_plan.empty()) {
    auto plan = fault::ParsePlan(spec.fault_plan);
    if (!plan.ok()) return plan.status();
  }
  if (spec.jobs < 1) return InvalidArgumentError("jobs must be >= 1");
  if (spec.arrival < 0) return InvalidArgumentError("arrival must be >= 0");
  if (spec.csched < 0 || spec.csched > 2)
    return InvalidArgumentError("csched must be 0 (fcfs), 1 (easy), or 2 (bb)");
  if (spec.ec_k < 0 || spec.ec_m < 0)
    return InvalidArgumentError("ec shard counts must be >= 0");
  if (spec.ec_k > 0) {
    if (spec.system != SystemKind::kUniviStor)
      return InvalidArgumentError("ec requires system=univistor");
    if (spec.ec_m < 1) return InvalidArgumentError("ec needs at least one parity shard");
    if (spec.ec_k + spec.ec_m > spec.osts)
      return InvalidArgumentError("ec needs k+m <= osts");
  } else if (spec.ec_m > 0 || spec.scrub) {
    return InvalidArgumentError("ec_m/scrub require ec=K+M");
  }
  if (spec.jobs > 1) {
    if (spec.system != SystemKind::kUniviStor)
      return InvalidArgumentError("jobs > 1 requires system=univistor");
    if (spec.workload == WorkloadKind::kWorkflow)
      return InvalidArgumentError("jobs > 1 does not support workload=workflow");
    if (spec.failure == FailureMode::kAfterWrites || spec.failure == FailureMode::kDuringFlush)
      return InvalidArgumentError("jobs > 1 supports only fail=none or fail=plan");
  }
  return spec;
}

}  // namespace uvs::testkit
