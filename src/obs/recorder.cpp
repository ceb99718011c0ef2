#include "src/obs/recorder.hpp"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

namespace uvs::obs {

namespace {

/// Shortest representation that round-trips a double and is valid JSON
/// (never inf/nan — callers only publish finite values).
std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Normalize "-0" and keep the output strictly JSON (no inf/nan expected).
  std::string s(buf);
  if (s == "-0") s = "0";
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microseconds with sub-ns resolution, the Chrome trace time unit.
std::string TraceTs(Time seconds) { return JsonNumber(seconds * 1e6); }

Status WriteWholeFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return UnavailableError("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0)
    return UnavailableError("short write to " + path);
  return Status::Ok();
}

}  // namespace

const char* CategoryName(Category cat) {
  switch (cat) {
    case Category::kNone: return "none";
    case Category::kCompute: return "compute";
    case Category::kQueue: return "queue";
    case Category::kDram: return "dram";
    case Category::kBb: return "bb";
    case Category::kPfs: return "pfs";
    case Category::kMeta: return "meta";
    case Category::kNet: return "net";
    case Category::kDegraded: return "degraded";
  }
  return "none";
}

std::string Track::PidName() const {
  if (pid == kSimPid) return "simulator";
  if (pid >= kOstPidBase) return "ost " + std::to_string(pid - kOstPidBase);
  if (pid >= kBbPidBase) return "bb " + std::to_string(pid - kBbPidBase);
  return "node " + std::to_string(pid - kNodePidBase);
}

std::string Track::TidName() const {
  if (tid >= kRankTidBase) {
    const std::int32_t lane = tid - kRankTidBase;
    return "rank " + std::to_string(lane % 100000) + " (prog " +
           std::to_string(lane / 100000) + ")";
  }
  if (tid >= kClusterTidBase) return "cluster job " + std::to_string(tid - kClusterTidBase);
  if (tid >= kMetaQueueTidBase) return "md queue " + std::to_string(tid - kMetaQueueTidBase);
  if (tid >= kPfsIoTidBase) return "pfs file " + std::to_string(tid - kPfsIoTidBase);
  if (tid >= kFlushTidBase) return "flush file " + std::to_string(tid - kFlushTidBase);
  if (tid >= kMetaTidBase) return "md server " + std::to_string(tid - kMetaTidBase);
  return "device";
}

Recorder::~Recorder() { Uninstall(); }

void Recorder::Install() {
  assert(current_ == nullptr && "another obs::Recorder is already installed on this thread");
  current_ = this;
}

void Recorder::Uninstall() {
  if (current_ == this) current_ = nullptr;
}

bool Recorder::MakeRoom() {
  if (!prune_hook_ || pruning_) return false;
  pruning_ = true;
  const std::size_t freed = prune_hook_(*this);
  pruning_ = false;
  return freed > 0;
}

Recorder::Kind Recorder::InternKind(const char* category, const char* name) {
  for (const Kind& kind : kinds_)
    if (kind.category == category && kind.name == name) return kind;
  // Names are static literals, so kinds are bounded by the span call sites.
  assert(kinds_.size() <= UINT16_MAX && "more distinct span kinds than a SpanEvent can index");
  return kinds_.emplace_back(Kind{category, name, static_cast<std::uint16_t>(kinds_.size())});
}

std::size_t Recorder::SpanLog::EraseIf(const std::function<bool(const SpanEvent&)>& drop) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (drop((*this)[i])) continue;
    if (kept != i) at(kept) = (*this)[i];
    ++kept;
  }
  const std::size_t removed = size_ - kept;
  size_ = kept;
  blocks_.resize((kept + kBlockSpans - 1) >> kBlockShift);
  return removed;
}

std::size_t Recorder::EraseSpansIf(const std::function<bool(const SpanEvent&)>& drop) {
  const std::size_t removed = spans_.EraseIf(drop);
  spans_pruned_ += removed;
  return removed;
}

void Recorder::Sample(Time now) {
  ++samples_taken_;
  for (const auto& [name, counter] : metrics_.counters())
    series_.push_back(SeriesPoint{now, &name, static_cast<double>(counter.value())});
  for (const auto& [name, gauge] : metrics_.gauges())
    series_.push_back(SeriesPoint{now, &name, gauge.value()});
}

void Recorder::WriteChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Track-name metadata for every (pid) / (pid, tid) that carries spans.
  std::set<std::int32_t> pids;
  std::set<std::pair<std::int32_t, std::int32_t>> tids;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Track& track = spans_[i].track;
    pids.insert(track.pid);
    tids.insert({track.pid, track.tid});
  }
  for (std::int32_t pid : pids) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << JsonEscape(Track{pid, 0}.PidName())
       << "\"}}";
  }
  for (const auto& [pid, tid] : tids) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << JsonEscape(Track{pid, tid}.TidName()) << "\"}}";
  }

  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanEvent& span = spans_[i];
    sep();
    os << "{\"ph\":\"X\",\"cat\":\"" << category(span) << "\",\"name\":\"" << name(span)
       << "\",\"pid\":" << span.track.pid << ",\"tid\":" << span.track.tid
       << ",\"ts\":" << TraceTs(span.start) << ",\"dur\":" << TraceTs(span.end - span.start);
    const bool tagged = span.cat != Category::kNone || span.self || span.parent;
    if (span.bytes != kNoBytes || tagged) {
      os << ",\"args\":{";
      bool first_arg = true;
      auto arg = [&](const char* key) -> std::ostream& {
        if (!first_arg) os << ",";
        first_arg = false;
        os << "\"" << key << "\":";
        return os;
      };
      if (span.bytes != kNoBytes) arg("bytes") << span.bytes;
      if (span.cat != Category::kNone) arg("ac") << "\"" << CategoryName(span.cat) << "\"";
      if (span.self) arg("id") << span.self.id;
      if (span.parent) arg("parent") << span.parent.id;
      os << "}";
    }
    os << "}";
  }

  // Sampled series as counter events on the simulator-global track.
  for (const auto& point : series_) {
    sep();
    os << "{\"ph\":\"C\",\"name\":\"" << JsonEscape(*point.name)
       << "\",\"pid\":" << Track::kSimPid << ",\"tid\":0,\"ts\":" << TraceTs(point.t)
       << ",\"args\":{\"value\":" << JsonNumber(point.value) << "}}";
  }

  os << "\n]}\n";
}

std::string Recorder::ChromeTraceJson() const {
  std::ostringstream os;
  WriteChromeTrace(os);
  return std::move(os).str();
}

std::string Recorder::MetricsJson(Time sim_elapsed, const std::string& attribution_json,
                                  const std::string& telemetry_json,
                                  const std::string& slo_json) const {
  std::ostringstream os;
  os << "{\n\"schema\":\"univistor.metrics.v3\",\n";
  os << "\"sim_elapsed_seconds\":" << JsonNumber(sim_elapsed) << ",\n";
  os << "\"span_count\":" << spans_.size() << ",\n";
  os << "\"span_limit\":" << span_limit_ << ",\n";
  os << "\"spans_dropped\":" << spans_dropped_ << ",\n";
  os << "\"spans_pruned\":" << spans_pruned_ << ",\n";
  if (!attribution_json.empty()) os << "\"attribution\":" << attribution_json << ",\n";
  if (!telemetry_json.empty()) os << "\"telemetry\":" << telemetry_json << ",\n";
  if (!slo_json.empty()) os << "\"slo\":" << slo_json << ",\n";

  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : metrics_.counters()) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << JsonEscape(name) << "\":" << counter.value();
  }
  os << "\n},\n";

  os << "\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : metrics_.gauges()) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << JsonEscape(name) << "\":" << JsonNumber(gauge.value());
  }
  os << "\n},\n";

  os << "\"distributions\":{";
  first = true;
  for (const auto& [name, dist] : metrics_.distributions()) {
    if (!first) os << ",";
    first = false;
    const RunningStats& s = dist.stats();
    os << "\n\"" << JsonEscape(name) << "\":{\"count\":" << s.count()
       << ",\"mean\":" << JsonNumber(s.mean()) << ",\"min\":" << JsonNumber(s.min())
       << ",\"max\":" << JsonNumber(s.max()) << ",\"stddev\":" << JsonNumber(s.stddev());
    if (const Histogram* h = dist.buckets()) {
      os << ",\"p50\":" << JsonNumber(h->Quantile(0.5))
         << ",\"p95\":" << JsonNumber(h->Quantile(0.95))
         << ",\"p99\":" << JsonNumber(h->Quantile(0.99));
      // Out-of-range observations are clamped into the edge buckets, so
      // the quantiles above saturate at the histogram bounds; the counts
      // make that saturation visible instead of silent.
      if (h->underflow() != 0 || h->overflow() != 0)
        os << ",\"underflow\":" << h->underflow() << ",\"overflow\":" << h->overflow();
    }
    os << "}";
  }
  os << "\n},\n";

  os << "\"series\":[";
  first = true;
  for (const auto& point : series_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"t\":" << JsonNumber(point.t) << ",\"metric\":\"" << JsonEscape(*point.name)
       << "\",\"value\":" << JsonNumber(point.value) << "}";
  }
  os << "\n]\n}\n";
  return os.str();
}

std::string Recorder::SeriesCsv() const {
  std::ostringstream os;
  os << "t,metric,value\n";
  for (const auto& point : series_)
    os << JsonNumber(point.t) << "," << *point.name << "," << JsonNumber(point.value)
       << "\n";
  return os.str();
}

Status Recorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return UnavailableError("cannot open " + path + " for writing");
  WriteChromeTrace(out);
  out.close();
  if (!out) return UnavailableError("short write to " + path);
  return Status::Ok();
}

Status Recorder::WriteMetricsJson(const std::string& path, Time sim_elapsed,
                                  const std::string& attribution_json,
                                  const std::string& telemetry_json,
                                  const std::string& slo_json) const {
  return WriteWholeFile(path, MetricsJson(sim_elapsed, attribution_json, telemetry_json, slo_json));
}

Status Recorder::WriteSeriesCsv(const std::string& path) const {
  return WriteWholeFile(path, SeriesCsv());
}

}  // namespace uvs::obs
