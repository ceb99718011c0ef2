#include "src/testkit/shrink.hpp"

#include <algorithm>
#include <vector>

namespace uvs::testkit {

namespace {

using workload::WorkloadKind;

/// Keeps a transformed spec self-consistent (sampler guarantees).
void Normalize(ScenarioSpec& spec) {
  spec.procs = std::max(spec.procs, 1);
  spec.procs_per_node = std::clamp(spec.procs_per_node, 1, spec.procs);
  spec.steps = std::max(spec.steps, 1);
  spec.bytes_per_rank = std::max<Bytes>(spec.bytes_per_rank, 1_MiB);
  if (spec.failure == FailureMode::kNone) {
    spec.failed_node = 0;
  } else {
    spec.failed_node = std::clamp(spec.failed_node, 0, spec.Nodes() - 1);
  }
  if (spec.failure != FailureMode::kPlan) spec.fault_plan.clear();
  if (spec.failure == FailureMode::kPlan && spec.fault_plan.empty())
    spec.failure = FailureMode::kNone;
  // EC only exists on the univistor path and needs k+m distinct OSTs; a
  // transform that breaks either drops erasure coding entirely.
  if (spec.system != workload::SystemKind::kUniviStor) spec.ec_k = 0;
  if (spec.ec_k > 0 && spec.ec_k + spec.ec_m > spec.osts) spec.ec_k = 0;
  if (spec.ec_k == 0) {
    spec.ec_m = 0;
    spec.scrub = false;
  }
  spec.jobs = std::max(spec.jobs, 1);
  if (spec.jobs == 1) {
    // Single-job specs keep the (unprinted) cluster defaults so shrunk
    // strings stay canonical.
    spec.arrival = 0.0;
    spec.csched = 2;
  }
}

using Transform = void (*)(ScenarioSpec&);

// Ordered big-win-first: structural reductions before toggle resets.
constexpr Transform kTransforms[] = {
    [](ScenarioSpec& s) { s.jobs /= 2; },
    [](ScenarioSpec& s) { s.procs /= 2; },
    [](ScenarioSpec& s) { s.steps /= 2; },
    [](ScenarioSpec& s) { s.bytes_per_rank /= 2; },
    [](ScenarioSpec& s) {
      // One simplification step down the workload ladder.
      if (s.workload == WorkloadKind::kWorkflow) s.workload = WorkloadKind::kVpic;
      else if (s.workload == WorkloadKind::kVpic) s.workload = WorkloadKind::kMicroReadBack;
      else if (s.workload == WorkloadKind::kMicroReadBack) s.workload = WorkloadKind::kMicro;
    },
    [](ScenarioSpec& s) {
      // Drop the last fault-plan event; an emptied plan becomes kNone via
      // Normalize. Plans print events ';'-joined, so this is pure string
      // surgery — no reparse needed.
      const std::size_t semi = s.fault_plan.rfind(';');
      if (semi == std::string::npos) s.fault_plan.clear();
      else s.fault_plan.resize(semi);
    },
    [](ScenarioSpec& s) { s.failure = FailureMode::kNone; },
    [](ScenarioSpec& s) { s.ec_k = 0; },  // Normalize zeroes ec_m + scrub too
    [](ScenarioSpec& s) { s.scrub = false; },
    [](ScenarioSpec& s) { s.arrival = 0.0; },
    [](ScenarioSpec& s) { s.recovery = false; },
    [](ScenarioSpec& s) { s.compute_time = 0.0; },
    [](ScenarioSpec& s) { s.has_ssd = false; },
    [](ScenarioSpec& s) { s.bb_nodes = 2; },
    [](ScenarioSpec& s) { s.osts = 4; },
    // Toggle resets toward univistor::Config defaults, one at a time so
    // only bug-irrelevant toggles are normalized away.
    [](ScenarioSpec& s) { s.ia = true; },
    [](ScenarioSpec& s) { s.coc = true; },
    [](ScenarioSpec& s) { s.adpt = true; },
    [](ScenarioSpec& s) { s.la = true; },
    [](ScenarioSpec& s) { s.replicate_volatile = false; },
    [](ScenarioSpec& s) { s.promote_hot_reads = false; },
    [](ScenarioSpec& s) { s.flush_on_close = true; },
    [](ScenarioSpec& s) { s.first_layer = 0; },
    [](ScenarioSpec& s) { s.chunk_size = 4_MiB; },
    [](ScenarioSpec& s) { s.metadata_range_size = 2_MiB; },
};

}  // namespace

ShrinkResult Shrink(const ScenarioSpec& failing, const FailurePredicate& still_fails,
                    int max_attempts) {
  ShrinkResult result{failing, 0};
  bool progress = true;
  while (progress && result.attempts < max_attempts) {
    progress = false;
    for (const Transform transform : kTransforms) {
      if (result.attempts >= max_attempts) break;
      ScenarioSpec candidate = result.spec;
      transform(candidate);
      Normalize(candidate);
      if (candidate == result.spec) continue;  // transform was a no-op here
      ++result.attempts;
      if (still_fails(candidate)) {
        result.spec = candidate;
        progress = true;
      }
    }
  }
  return result;
}

}  // namespace uvs::testkit
