#include "src/testkit/scenario_spec.hpp"

#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "src/common/key_values.hpp"
#include "src/common/rng.hpp"
#include "src/fault/plan.hpp"

namespace uvs::testkit {

using workload::SystemKind;
using workload::WorkloadKind;

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

Result<ScenarioSpec> ParseScenarioSpec(const std::string& text) {
  ScenarioSpec spec;
  KeyValues kv(text);
  std::pair<int, int> ec{0, 0};
  kv.Number("seed", &spec.seed, 0);
  kv.Number("procs", &spec.procs, 1);
  kv.Number("ppn", &spec.procs_per_node, 1);
  kv.Bool("ssd", &spec.has_ssd);
  kv.MiB("ssd_mb", &spec.ssd_capacity, 0);
  kv.MiB("dram_mb", &spec.dram_cache_capacity, 0);
  kv.Number("bb_nodes", &spec.bb_nodes, 0);
  kv.MiB("bb_mb", &spec.bb_capacity_per_node, 0);
  kv.Number("osts", &spec.osts, 1);
  kv.Choice("system", &spec.system, workload::SystemKindName, 3);
  kv.Bool("ia", &spec.ia);
  kv.Bool("coc", &spec.coc);
  kv.Bool("adpt", &spec.adpt);
  kv.Bool("la", &spec.la);
  kv.Bool("rep", &spec.replicate_volatile);
  kv.Bool("promo", &spec.promote_hot_reads);
  kv.Bool("foc", &spec.flush_on_close);
  kv.Number("layer", &spec.first_layer, 0, 3);
  // Chunk and metadata-range sizes divide offsets, so they must be positive.
  kv.MiB("chunk_mb", &spec.chunk_size, 1);
  kv.MiB("md_mb", &spec.metadata_range_size, 1);
  kv.Choice("workload", &spec.workload, workload::WorkloadKindName, 4);
  kv.MiB("mb", &spec.bytes_per_rank, 0);
  kv.Number("steps", &spec.steps, 1);
  kv.Number("compute", &spec.compute_time, 0.0);
  kv.Choice("fail", &spec.failure, FailureModeName, 4);
  kv.Number("fail_node", &spec.failed_node, 0);
  kv.Read("fplan", &spec.fault_plan, [](const std::string& v) -> Result<std::string> {
    UVS_RETURN_IF_ERROR(fault::ParsePlan(v).status());
    return v;
  });
  kv.Bool("recov", &spec.recovery);
  kv.Number("jobs", &spec.jobs, 1);
  kv.Number("arrival", &spec.arrival, 0.0);
  kv.Number("csched", &spec.csched, 0, 2);
  kv.Read("ec", &ec, ParseEcShards);
  kv.Bool("scrub", &spec.scrub);
  UVS_RETURN_IF_ERROR(kv.Finish());
  spec.ec_k = ec.first;
  spec.ec_m = ec.second;

  if (spec.first_layer == 1)
    return InvalidArgumentError("layer must be 0 (DRAM), 2 (BB), or 3 (PFS)");
  if (spec.failed_node >= spec.Nodes()) return InvalidArgumentError("fail_node out of range");
  if ((spec.failure == FailureMode::kPlan) != !spec.fault_plan.empty())
    return InvalidArgumentError("fplan must be set exactly when fail=plan");
  if (spec.ec_k > 0) {
    if (spec.system != SystemKind::kUniviStor)
      return InvalidArgumentError("ec requires system=univistor");
    if (spec.ec_k + spec.ec_m > spec.osts)
      return InvalidArgumentError("ec needs k+m <= osts");
  } else if (spec.scrub) {
    return InvalidArgumentError("scrub requires ec=K+M");
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
