#include "src/fault/plan.hpp"

#include <cstdio>

#include "src/common/key_values.hpp"

namespace uvs::fault {
namespace {

// %.6g keeps the menu values ("0.0005", "0.25") exact and short, so
// ToString -> ParsePlan is an identity for every plan the sampler emits.
std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// "T" or "T+D" after the '@': finite times >= 0.
Status ParseWindow(const std::string& s, FaultEvent* ev) {
  const std::size_t plus = s.find('+');
  const Result<double> at = ParseNumber(s.substr(0, plus), 0.0);
  if (!at.ok()) return at.status();
  ev->at = *at;
  if (plus == std::string::npos) return Status::Ok();
  const Result<double> duration = ParseNumber(s.substr(plus + 1), 0.0);
  if (!duration.ok()) return duration.status();
  ev->duration = *duration;
  return Status::Ok();
}

Status BadEvent(const std::string& token, const std::string& why) {
  return InvalidArgumentError("bad fault event '" + token + "': " + why);
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kNodeCrash:
      return "crash";
    case EventKind::kOstDegrade:
      return "ost";
    case EventKind::kBbStall:
      return "bb";
    case EventKind::kTransferTimeout:
      return "timeout";
    case EventKind::kOstFail:
      return "ostfail";
    case EventKind::kLatentError:
      return "latent";
    case EventKind::kScrub:
      return "scrub";
  }
  return "?";
}

namespace {
bool DurationLess(EventKind kind) {
  return kind == EventKind::kNodeCrash || kind == EventKind::kOstFail ||
         kind == EventKind::kLatentError || kind == EventKind::kScrub;
}
}  // namespace

std::string Plan::ToString() const {
  std::string out;
  for (const FaultEvent& ev : events) {
    if (!out.empty()) out += ';';
    out += EventKindName(ev.kind);
    out += '@';
    out += Num(ev.at);
    if (!DurationLess(ev.kind)) out += '+' + Num(ev.duration);
    switch (ev.kind) {
      case EventKind::kNodeCrash:
        out += ":node=" + std::to_string(ev.target);
        break;
      case EventKind::kOstDegrade:
        out += ":ost=" + std::to_string(ev.target) + ",factor=" + Num(ev.factor);
        break;
      case EventKind::kBbStall:
        out += ':';
        if (ev.target >= 0) out += "bb=" + std::to_string(ev.target) + ',';
        out += "factor=" + Num(ev.factor);
        break;
      case EventKind::kOstFail:
      case EventKind::kLatentError:
        out += ":ost=" + std::to_string(ev.target);
        break;
      case EventKind::kTransferTimeout:
      case EventKind::kScrub:
        break;
    }
  }
  return out;
}

Result<Plan> ParsePlan(const std::string& spec) {
  Plan plan;
  if (spec.empty()) return plan;
  for (const std::string& token : SplitOn(spec, ';')) {
    const std::size_t at_pos = token.find('@');
    if (at_pos == std::string::npos) return BadEvent(token, "missing '@time'");
    const std::string kind = token.substr(0, at_pos);
    const std::size_t colon = token.find(':', at_pos);
    const std::string window =
        token.substr(at_pos + 1, (colon == std::string::npos ? token.size() : colon) - at_pos - 1);
    KeyValues options(colon == std::string::npos ? "" : token.substr(colon + 1), ',');

    FaultEvent ev;
    if (Status s = ParseWindow(window, &ev); !s.ok())
      return BadEvent(token, "bad time window: " + s.message());
    if (kind == "crash") {
      ev.kind = EventKind::kNodeCrash;
      options.Require("node");
      options.Number("node", &ev.target, 0);
    } else if (kind == "ost") {
      ev.kind = EventKind::kOstDegrade;
      options.Require("ost");
      options.Number("ost", &ev.target, 0);
      options.Number("factor", &ev.factor, 0.0, 1.0);
    } else if (kind == "bb") {
      ev.kind = EventKind::kBbStall;
      options.Number("bb", &ev.target, 0);
      options.Number("factor", &ev.factor, 0.0, 1.0);
    } else if (kind == "timeout") {
      ev.kind = EventKind::kTransferTimeout;
    } else if (kind == "ostfail" || kind == "latent") {
      ev.kind = kind[0] == 'o' ? EventKind::kOstFail : EventKind::kLatentError;
      options.Require("ost");
      options.Number("ost", &ev.target, 0);
    } else if (kind == "scrub") {
      ev.kind = EventKind::kScrub;
    } else {
      return BadEvent(token, "unknown event kind");
    }
    if (Status s = options.Finish(); !s.ok()) return BadEvent(token, s.message());

    if (DurationLess(ev.kind)) ev.duration = 0.0;
    if (ev.kind == EventKind::kOstDegrade || ev.kind == EventKind::kBbStall) {
      if (ev.factor == 0.0) return BadEvent(token, "factor must be in (0,1]");
      if (ev.duration <= 0.0) return BadEvent(token, "window needs a +duration");
    }
    plan.events.push_back(ev);
  }
  return plan;
}

Plan SamplePlan(Rng& rng, int nodes, int osts, int bb_nodes, bool ec) {
  // Discrete menus keep plans printable/round-trippable and land the
  // windows inside the short simulated runs the fuzzer drives.
  static constexpr double kStarts[] = {0.0005, 0.001, 0.002, 0.005, 0.01, 0.05};
  static constexpr double kDurations[] = {0.001, 0.005, 0.02, 0.1};
  static constexpr double kFactors[] = {0.01, 0.05, 0.1, 0.25, 0.5};
  const auto pick = [&rng](const double* menu, std::size_t n) {
    return menu[rng.NextBelow(n)];
  };

  Plan plan;
  const int count = 1 + static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < count; ++i) {
    FaultEvent ev;
    ev.at = pick(kStarts, std::size(kStarts));
    switch (rng.NextBelow(ec ? 7 : 4)) {
      case 4:
        ev.kind = EventKind::kOstFail;
        ev.target = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(osts)));
        break;
      case 5:
        ev.kind = EventKind::kLatentError;
        ev.target = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(osts)));
        break;
      case 6:
        ev.kind = EventKind::kScrub;
        break;
      case 0:
        ev.kind = EventKind::kNodeCrash;
        ev.target = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(nodes)));
        break;
      case 1:
        ev.kind = EventKind::kOstDegrade;
        ev.target = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(osts)));
        ev.duration = pick(kDurations, std::size(kDurations));
        ev.factor = pick(kFactors, std::size(kFactors));
        break;
      case 2:
        ev.kind = EventKind::kBbStall;
        // 50/50 single node vs. all nodes.
        ev.target = rng.NextBelow(2) == 0
                        ? -1
                        : static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(bb_nodes)));
        ev.duration = pick(kDurations, std::size(kDurations));
        ev.factor = pick(kFactors, std::size(kFactors));
        break;
      default:
        ev.kind = EventKind::kTransferTimeout;
        ev.duration = pick(kDurations, std::size(kDurations));
        break;
    }
    plan.events.push_back(ev);
  }
  return plan;
}

}  // namespace uvs::fault
