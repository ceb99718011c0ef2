#include "src/obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "src/common/json.hpp"
#include "src/common/key_values.hpp"

namespace uvs::obs {

namespace {

/// Burn rates divide by the budget; a zero-tolerance budget ("lost<=0")
/// must still produce finite JSON, so burns are computed against a floored
/// budget and capped. A capped burn is unambiguous: the budget is gone.
constexpr double kMinBudget = 1e-9;
constexpr double kMaxBurn = 1e6;

std::string FmtShort(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string SloSpec::Label() const { return metric + "<=" + FmtShort(threshold); }

std::string SloSpec::ToString() const {
  return Label() + ":budget=" + FmtShort(budget) + ",fast=" + FmtShort(fast_window) +
         ",slow=" + FmtShort(slow_window) + ",burn=" + FmtShort(alert_burn);
}

Result<std::vector<SloSpec>> ParseSloSpecs(const std::string& text) {
  std::vector<SloSpec> specs;
  for (const std::string& raw : SplitOn(text, ';')) {
    const std::string entry = Trim(raw);
    if (entry.empty()) continue;
    const std::size_t op = entry.find("<=");
    if (op == std::string::npos)
      return InvalidArgumentError("slo: '" + entry + "' has no '<=' threshold");
    SloSpec spec;
    spec.metric = Trim(entry.substr(0, op));
    if (spec.metric != "stretch" && spec.metric != "wait" && spec.metric != "lost")
      return InvalidArgumentError("slo: unknown metric '" + spec.metric +
                                  "' (want stretch|wait|lost)");
    const std::string rest = entry.substr(op + 2);
    const std::size_t colon = rest.find(':');
    const Result<double> threshold = ParseNumber(Trim(rest.substr(0, colon)), 0.0);
    if (!threshold.ok())
      return InvalidArgumentError("slo: threshold: " + threshold.status().message());
    spec.threshold = *threshold;
    KeyValues options(colon == std::string::npos ? "" : rest.substr(colon + 1), ',');
    options.Number("budget", &spec.budget, 0.0, 1.0);
    options.Number("fast", &spec.fast_window, 0.0);
    options.Number("slow", &spec.slow_window, 0.0);
    options.Number("burn", &spec.alert_burn, 0.0);
    if (Status s = options.Finish(); !s.ok()) return InvalidArgumentError("slo: " + s.message());
    if (spec.budget == 0.0) return InvalidArgumentError("slo: budget must be in (0, 1]");
    if (spec.fast_window == 0.0 || spec.slow_window < spec.fast_window)
      return InvalidArgumentError("slo: want 0 < fast <= slow window");
    if (spec.alert_burn == 0.0) return InvalidArgumentError("slo: burn must be > 0");
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) return InvalidArgumentError("slo: empty spec list");
  return specs;
}

std::vector<SloSpec> DefaultSloSpecs() {
  SloSpec stretch;
  stretch.metric = "stretch";
  stretch.threshold = 4.0;
  stretch.budget = 0.25;
  SloSpec wait;
  wait.metric = "wait";
  wait.threshold = 1.0;
  wait.budget = 0.25;
  SloSpec lost;
  lost.metric = "lost";
  lost.threshold = 0.0;
  lost.budget = 1e-3;  // effectively zero tolerance: one loss breaches
  return {stretch, wait, lost};
}

bool SloTracker::Record(Time now, double value) {
  const bool is_bad = value > spec_.threshold;
  ++total_;
  if (is_bad) ++bad_;
  events_.emplace_back(now, is_bad);
  while (!events_.empty() && events_.front().first <= now - spec_.slow_window)
    events_.pop_front();
  const double fast = FastBurn(now);
  const double slow = SlowBurn(now);
  peak_fast_burn_ = std::max(peak_fast_burn_, fast);
  peak_slow_burn_ = std::max(peak_slow_burn_, slow);
  const bool now_alerting = fast >= spec_.alert_burn && slow >= spec_.alert_burn;
  if (now_alerting && !alerting_) ++alerts_;
  alerting_ = now_alerting;
  return is_bad;
}

double SloTracker::WindowBurn(Time now, Time window) const {
  std::uint64_t in_window = 0;
  std::uint64_t bad_in_window = 0;
  // events_ only spans the slow window, so this scan is bounded; windows
  // are half-open (now - w, now].
  for (const auto& [t, is_bad] : events_) {
    if (t <= now - window) continue;
    ++in_window;
    bad_in_window += is_bad ? 1 : 0;
  }
  if (in_window == 0) return 0.0;
  const double frac = static_cast<double>(bad_in_window) / static_cast<double>(in_window);
  return std::min(frac / std::max(spec_.budget, kMinBudget), kMaxBurn);
}

double SloTracker::budget_consumed() const {
  if (total_ == 0) return 0.0;
  const double frac = static_cast<double>(bad_) / static_cast<double>(total_);
  return std::min(frac / std::max(spec_.budget, kMinBudget), kMaxBurn);
}

const char* SloTracker::verdict() const {
  if (alerts_ > 0 || budget_consumed() > 1.0) return "breached";
  if (budget_consumed() > 0.5 || peak_fast_burn_ >= spec_.alert_burn) return "at_risk";
  return "ok";
}

std::string SloTracker::ToJson() const {
  std::string out = "{";
  out += "\"name\":\"" + spec_.metric + "\"";
  out += ",\"label\":\"" + spec_.Label() + "\"";
  out += ",\"threshold\":" + json::Number(spec_.threshold);
  out += ",\"budget\":" + json::Number(spec_.budget);
  out += ",\"fast_window\":" + json::Number(spec_.fast_window);
  out += ",\"slow_window\":" + json::Number(spec_.slow_window);
  out += ",\"alert_burn\":" + json::Number(spec_.alert_burn);
  out += ",\"total\":" + std::to_string(total_);
  out += ",\"bad\":" + std::to_string(bad_);
  out += ",\"budget_consumed\":" + json::Number(budget_consumed());
  out += ",\"peak_fast_burn\":" + json::Number(peak_fast_burn_);
  out += ",\"peak_slow_burn\":" + json::Number(peak_slow_burn_);
  out += ",\"alerts\":" + std::to_string(alerts_);
  out += ",\"verdict\":\"" + std::string(verdict()) + "\"";
  out += "}";
  return out;
}

}  // namespace uvs::obs
