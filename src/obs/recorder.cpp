#include "src/obs/recorder.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/common/json.hpp"

namespace uvs::obs {

namespace {

/// Microseconds with sub-ns resolution, the Chrome trace time unit.
std::string TraceTs(Time seconds) { return json::Number(seconds * 1e6); }

Status WriteWholeFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return UnavailableError("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0)
    return UnavailableError("short write to " + path);
  return Status::Ok();
}

/// The processes lanes are drawn in, in trace order.
enum Process { kSimulatorProcess, kNodeProcess, kBbProcess, kOstProcess };
constexpr const char* kProcessLabel[] = {"simulator", "node ", "bb ", "ost "};

/// Per Track::Kind, in enum order: the process its lanes are drawn in and
/// its lane label.
constexpr struct {
  Process process;
  const char* label;
} kKinds[] = {
    {kSimulatorProcess, "simulator"},   {kBbProcess, "device"},
    {kOstProcess, "device"},            {kNodeProcess, "md server "},
    {kSimulatorProcess, "flush file "}, {kNodeProcess, "pfs file "},
    {kSimulatorProcess, "cluster job "}, {kNodeProcess, "rank "},
};
static_assert(std::size(kKinds) == static_cast<std::size_t>(Track::Kind::kRank) + 1);

/// A lane's process: its kind of location and its number.
std::pair<Process, std::int32_t> ProcessKey(const Track& t) {
  const Process process = kKinds[static_cast<std::size_t>(t.kind)].process;
  return {process, process == kSimulatorProcess ? 0 : t.node};
}

/// Home slot of a track in a lane table of `mask` + 1 slots.
std::size_t LaneHome(const Track& t, std::size_t mask) {
  const std::uint64_t fields = (std::uint64_t{static_cast<std::uint32_t>(t.node)} << 32 |
                                static_cast<std::uint32_t>(t.program)) ^
                               static_cast<std::uint64_t>(t.kind);
  const std::uint64_t index = static_cast<std::uint64_t>(t.index) * 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(((index ^ fields) * 0xbf58476d1ce4e5b9ull) >> 32) & mask;
}

/// Trace order: by process, then by kind and fields within it.
bool TraceBefore(const Track& a, const Track& b) {
  return std::tuple(ProcessKey(a), a.kind, a.program, a.index) <
         std::tuple(ProcessKey(b), b.kind, b.program, b.index);
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
  const auto [process, number] = ProcessKey(*this);
  return process == kSimulatorProcess ? kProcessLabel[process]
                                      : kProcessLabel[process] + std::to_string(number);
}

std::string Track::TidName() const {
  const std::string label = kKinds[static_cast<std::size_t>(kind)].label;
  if (kind == Kind::kRank)
    return label + std::to_string(index) + " (prog " + std::to_string(program) + ")";
  return kind <= Kind::kOst ? label : label + std::to_string(index);
}

Recorder::Recorder() {
  for (std::size_t part = 0; part < std::size(kRpcParts); ++part)
    rpc_kinds_[part] = KindOf("meta", kRpcParts[part].name);
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
  assert(kinds_.size() < kRpcKind && "more distinct span kinds than a SpanEvent can index");
  return kinds_.emplace_back(Kind{category, name, static_cast<std::uint16_t>(kinds_.size())});
}

std::uint32_t Recorder::LaneOf(const Track& track) {
  if (2 * (lanes_.size() + 1) > lane_slots_.size()) {
    lane_slots_.assign(std::max<std::size_t>(1024, 2 * lane_slots_.size()), 0);
    for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane) {
      std::size_t i = LaneHome(lanes_[lane], lane_slots_.size() - 1);
      while (lane_slots_[i] != 0) i = (i + 1) & (lane_slots_.size() - 1);
      lane_slots_[i] = lane + 1;
    }
  }
  std::size_t i = LaneHome(track, lane_slots_.size() - 1);
  for (; lane_slots_[i] != 0; i = (i + 1) & (lane_slots_.size() - 1))
    if (lanes_[lane_slots_[i] - 1] == track) return lane_slots_[i] - 1;
  lanes_.push_back(track);
  lane_slots_[i] = static_cast<std::uint32_t>(lanes_.size());
  return lane_slots_[i] - 1;
}

void Recorder::SpanLog::Truncate(std::size_t kept) {
  size_ = kept;
  blocks_.resize((kept + kBlockSpans - 1) >> kBlockShift);
}

void Recorder::AddMetadataRpc(const Track& rank, const Track& server, SpanRef parent,
                              RpcTimes times, std::uint8_t parts) {
  std::size_t slot = kMaxSlots;  // none yet
  std::uint64_t pruned_at_slot = 0;
  for (unsigned part = 0; part < std::size(kRpcParts); ++part) {
    if ((parts >> part & 1) == 0) continue;
    const Time start = times.*kRpcParts[part].from, end = times.*kRpcParts[part].to;
    if (FlightRecorder* fr = FlightRecorder::Current())
      fr->Note(end, "span", kRpcParts[part].name, end - start);
    if (span_count_ >= span_limit_ && !MakeRoom()) {
      ++spans_dropped_;
      continue;
    }
    // A prune between two parts may have moved or evicted this RPC's slot;
    // the later parts then take a slot of their own.
    if (slot == kMaxSlots || spans_pruned_ != pruned_at_slot) {
      const std::uint32_t server_lane = LaneOf(server);
      slot = spans_.size();
      spans_.push_back(std::bit_cast<SpanEvent>(
          RpcRecord{times, LaneOf(rank), server_lane, parent, kRpcKind, 0}));
      pruned_at_slot = spans_pruned_;
    }
    auto rpc = std::bit_cast<RpcRecord>(spans_[slot]);
    rpc.parts |= static_cast<std::uint8_t>(1u << part);
    spans_.at(slot) = std::bit_cast<SpanEvent>(rpc);
    ++span_count_;
  }
}

std::size_t Recorder::EraseSpansIf(const std::function<bool(const SpanEvent&)>& drop) {
  std::size_t removed = 0, kept = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanEvent slot = spans_[i];
    if (slot.kind != kRpcKind) {
      if (drop(slot)) {
        ++removed;
        continue;
      }
    } else {
      auto rpc = std::bit_cast<RpcRecord>(slot);
      for (unsigned part = 0; part < std::size(kRpcParts); ++part) {
        if ((rpc.parts >> part & 1) == 0 || !drop(RpcSpan(rpc, part))) continue;
        rpc.parts &= static_cast<std::uint8_t>(~(1u << part));
        ++removed;
      }
      if (rpc.parts == 0) continue;
      slot = std::bit_cast<SpanEvent>(rpc);
    }
    spans_.at(kept++) = slot;
  }
  spans_.Truncate(kept);
  span_count_ -= removed;
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

  // Name metadata for every process and lane that carries spans, in trace
  // order, numbered densely: the simulator process is always pid 0, where
  // the sampled counters go, and lanes are tids 1, 2, ...
  std::vector<int> pid(lanes_.size()), tid(lanes_.size(), 0);
  std::vector<std::uint32_t> order;
  ForEachSpan([&](SpanId, const SpanEvent& span) { tid[span.lane] = 1; });
  for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane)
    if (tid[lane] != 0) order.push_back(lane);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return TraceBefore(lanes_[a], lanes_[b]);
  });
  int pids = 1;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint32_t lane = order[k];
    tid[lane] = static_cast<int>(k) + 1;
    if (k > 0 && ProcessKey(lanes_[order[k - 1]]) == ProcessKey(lanes_[lane])) {
      pid[lane] = pid[order[k - 1]];
      continue;
    }
    pid[lane] = ProcessKey(lanes_[lane]).first == kSimulatorProcess ? 0 : pids++;
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid[lane]
       << ",\"tid\":0,\"args\":{\"name\":\"" << json::Escape(lanes_[lane].PidName())
       << "\"}}";
  }
  for (std::uint32_t lane : order) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pid[lane]
       << ",\"tid\":" << tid[lane] << ",\"args\":{\"name\":\""
       << json::Escape(lanes_[lane].TidName()) << "\"}}";
  }

  ForEachSpan([&](SpanId, const SpanEvent& span) {
    sep();
    os << "{\"ph\":\"X\",\"cat\":\"" << category(span) << "\",\"name\":\"" << name(span)
       << "\",\"pid\":" << pid[span.lane] << ",\"tid\":" << tid[span.lane]
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
  });

  // Sampled series as counter events on the simulator-global track.
  for (const auto& point : series_) {
    sep();
    os << "{\"ph\":\"C\",\"name\":\"" << json::Escape(*point.name)
       << "\",\"pid\":0,\"tid\":0,\"ts\":" << TraceTs(point.t)
       << ",\"args\":{\"value\":" << json::Number(point.value) << "}}";
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
  os << "\"sim_elapsed_seconds\":" << json::Number(sim_elapsed) << ",\n";
  os << "\"span_count\":" << span_count_ << ",\n";
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
    os << "\n\"" << json::Escape(name) << "\":" << counter.value();
  }
  os << "\n},\n";

  os << "\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : metrics_.gauges()) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << json::Escape(name) << "\":" << json::Number(gauge.value());
  }
  os << "\n},\n";

  os << "\"distributions\":{";
  first = true;
  for (const auto& [name, dist] : metrics_.distributions()) {
    if (!first) os << ",";
    first = false;
    const RunningStats& s = dist.stats();
    os << "\n\"" << json::Escape(name) << "\":{\"count\":" << s.count()
       << ",\"mean\":" << json::Number(s.mean()) << ",\"min\":" << json::Number(s.min())
       << ",\"max\":" << json::Number(s.max()) << ",\"stddev\":" << json::Number(s.stddev());
    if (const Histogram* h = dist.buckets()) {
      os << ",\"p50\":" << json::Number(h->Quantile(0.5))
         << ",\"p95\":" << json::Number(h->Quantile(0.95))
         << ",\"p99\":" << json::Number(h->Quantile(0.99));
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
    os << "\n{\"t\":" << json::Number(point.t) << ",\"metric\":\"" << json::Escape(*point.name)
       << "\",\"value\":" << json::Number(point.value) << "}";
  }
  os << "\n]\n}\n";
  return os.str();
}

std::string Recorder::SeriesCsv() const {
  std::ostringstream os;
  os << "t,metric,value\n";
  for (const auto& point : series_)
    os << json::Number(point.t) << "," << *point.name << "," << json::Number(point.value)
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
