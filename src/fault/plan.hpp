// Deterministic fault plans: a schedule of node crashes, device
// degradation windows, and transient transfer-timeout windows, fixed
// before the run starts. Plans come from a seed (`SamplePlan`) or from the
// one-line spec grammar (`ParsePlan`, used by `uvsim --faults` and the
// testkit scenario specs); both directions round-trip through ToString so
// a failing fuzz case can be replayed verbatim.
//
// Grammar (events joined by ';'; options joined by ',', each key at most
// once, blanks around option keys and values ignored):
//   crash@T:node=N            permanent loss of compute node N at time T
//   ost@T+D:ost=K,factor=F    OST K runs at F x bandwidth for D seconds
//   bb@T+D:factor=F           every BB node drains at F x bandwidth
//   bb@T+D:bb=K,factor=F      only BB node K is stalled
//   timeout@T+D               flush transfers time out (and are retried
//                             with backoff) while the window is open
//   ostfail@T:ost=K           permanent loss of OST K (erasure-coded shards
//                             go degraded; rebuild may relocate them)
//   latent@T:ost=K            silent corruption of one written shard on
//                             OST K (reads don't notice; scrub repairs)
//   scrub@T                   start a background scrub pass at time T
// Times and factors are plain decimals, e.g. "crash@0.002:node=1;
// ost@0.001+0.05:ost=3,factor=0.1".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/common/units.hpp"

namespace uvs::fault {

enum class EventKind : std::uint8_t {
  kNodeCrash = 0,
  kOstDegrade = 1,
  kBbStall = 2,
  kTransferTimeout = 3,
  // Erasure-coding events (docs/FAULTS.md): permanent, duration-less.
  kOstFail = 4,
  kLatentError = 5,
  kScrub = 6,
};

const char* EventKindName(EventKind kind);

struct FaultEvent {
  EventKind kind = EventKind::kNodeCrash;
  /// Simulated start time in seconds.
  Time at = 0.0;
  /// Window length in seconds; ignored for kNodeCrash (crashes are final).
  Time duration = 0.0;
  /// Node / OST / BB-node index; -1 means "all devices" (kBbStall only).
  int target = -1;
  /// Bandwidth multiplier in (0, 1] while the window is open.
  double factor = 1.0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

struct Plan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Spec-grammar form; ParsePlan(ToString()) reproduces the plan exactly.
  std::string ToString() const;

  friend bool operator==(const Plan&, const Plan&) = default;
};

/// Parses the spec grammar above. Targets are validity-checked by the
/// injector (which knows the cluster shape), not here.
Result<Plan> ParsePlan(const std::string& spec);

/// Deterministic random plan of 1–3 events with valid targets and times/
/// factors drawn from small discrete menus (so ToString round-trips and
/// shrunk repros stay readable). `ec` opts the erasure-coding event kinds
/// (ostfail/latent/scrub) into the menu; historical seeds sampled without
/// it draw exactly the same plans as before.
Plan SamplePlan(Rng& rng, int nodes, int osts, int bb_nodes, bool ec = false);

}  // namespace uvs::fault
