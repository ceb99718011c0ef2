// Per-tenant SLO definitions and multi-window burn-rate tracking.
//
// An SloSpec declares a good-event criterion over one QoS metric
// (`value <= threshold`) plus an error budget: the fraction of events
// allowed to be bad. An SloTracker consumes timestamped observations in
// sim time and maintains, SRE-style, burn rates over two sliding windows:
//
//   burn(window) = bad_fraction_in_window / budget
//
// A burn of 1.0 consumes the budget exactly at the sustainable rate; an
// *alert* fires (edge-triggered) when both the fast and the slow window
// burn at >= alert_burn simultaneously — the classic multi-window rule
// that ignores short blips (slow window still healthy) and stale history
// (fast window already recovered). The end-of-run verdict is
//   breached — an alert fired, or total budget consumption exceeded 1.0;
//   at_risk — over half the budget gone, or the fast window alone peaked
//             past alert_burn;
//   ok      — otherwise.
//
// Everything is driven by simulated time and recorded values only, so
// trackers never perturb the simulation and same-seed runs produce
// bit-identical slo blocks.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/units.hpp"

namespace uvs::obs {

struct SloSpec {
  std::string metric = "stretch";  // stretch | wait | lost (bytes)
  double threshold = 0.0;          // good iff value <= threshold
  double budget = 0.01;            // allowed bad-event fraction (0..1)
  Time fast_window = 1.0;          // sim seconds
  Time slow_window = 10.0;
  double alert_burn = 2.0;         // both-window burn that fires an alert

  /// Compact id used in counters, tables, and the slo block, e.g.
  /// "stretch<=4".
  std::string Label() const;
  /// Round-trips through ParseSloSpecs, e.g.
  /// "stretch<=4:budget=0.25,fast=1,slow=10,burn=2".
  std::string ToString() const;
};

/// Parses a ';'-separated spec list: each entry is
/// `metric<=threshold[:k=v[,k=v...]]` with keys budget, fast, slow, burn,
/// each at most once. Values are finite numbers: threshold >= 0, budget in
/// (0, 1], 0 < fast <= slow, burn > 0.
Result<std::vector<SloSpec>> ParseSloSpecs(const std::string& text);

/// The battery `uvsim --cluster --slo` evaluates when no spec is given:
/// stretch<=4 and wait<=1 at a 25% budget, and lost<=0 at a near-zero
/// budget (any data loss breaches).
std::vector<SloSpec> DefaultSloSpecs();

class SloTracker {
 public:
  SloTracker() = default;
  explicit SloTracker(SloSpec spec) : spec_(std::move(spec)) {}

  /// Feeds one observation at sim time `now` (non-decreasing). Returns
  /// true when the observation was bad (violated the threshold).
  bool Record(Time now, double value);

  const SloSpec& spec() const { return spec_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t bad() const { return bad_; }
  /// Lifetime budget consumption: (bad/total)/budget; 1.0 = budget gone.
  double budget_consumed() const;
  /// Burn rate over the trailing window (now - w, now].
  double FastBurn(Time now) const { return WindowBurn(now, spec_.fast_window); }
  double SlowBurn(Time now) const { return WindowBurn(now, spec_.slow_window); }
  double peak_fast_burn() const { return peak_fast_burn_; }
  double peak_slow_burn() const { return peak_slow_burn_; }
  /// Edge-triggered count of multi-window alert activations.
  std::uint64_t alerts() const { return alerts_; }
  bool alerting() const { return alerting_; }

  const char* verdict() const;
  /// One slo-block entry (without the tenant key, which the owner adds).
  std::string ToJson() const;

 private:
  double WindowBurn(Time now, Time window) const;

  SloSpec spec_;
  // (time, bad) events inside the slow window; older ones are pruned on
  // every Record, bounding memory by the window's event density.
  std::deque<std::pair<Time, bool>> events_;
  std::uint64_t total_ = 0;
  std::uint64_t bad_ = 0;
  double peak_fast_burn_ = 0.0;
  double peak_slow_burn_ = 0.0;
  std::uint64_t alerts_ = 0;
  bool alerting_ = false;
};

}  // namespace uvs::obs
