#include "src/obs/attribution.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <tuple>

#include "src/common/json.hpp"
#include "src/common/strings.hpp"
#include "src/common/table.hpp"

namespace uvs::obs {

namespace {

// Attribution resolution: two instants closer than this are the same
// boundary. Simulated times are seconds with sub-microsecond structure;
// picosecond granularity is far below anything the models produce.
constexpr Time kEps = 1e-12;

/// When several tagged spans overlap an instant, the most specific
/// transfer wins the blame: a rank waiting on the PFS *through* a queue
/// span is PFS-bound, not queue-bound.
int Priority(Category c) {
  switch (c) {
    case Category::kPfs: return 7;
    case Category::kBb: return 6;
    case Category::kDram: return 5;
    case Category::kMeta: return 4;
    case Category::kNet: return 3;
    case Category::kQueue: return 2;
    case Category::kDegraded: return 1;
    case Category::kCompute:
    case Category::kNone: return 0;
  }
  return 0;
}

struct Interval {
  Time a = 0;
  Time b = 0;
};

/// Sorted, merged union; input need not be sorted.
std::vector<Interval> UnionOf(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (iv.b <= iv.a) continue;
    if (!out.empty() && iv.a <= out.back().b + kEps)
      out.back().b = std::max(out.back().b, iv.b);
    else
      out.push_back(iv);
  }
  return out;
}

bool Covers(const std::vector<Interval>& sorted_union, Time a, Time b) {
  const Time mid = (a + b) / 2;
  for (const Interval& iv : sorted_union) {
    if (iv.a > mid) break;
    if (mid < iv.b) return true;
  }
  return false;
}

using SpanIndex = Recorder::SpanId;
constexpr SpanIndex kNoSpan = static_cast<SpanIndex>(-1);

/// Spans grouped per lane plus the causal index shared by the attribution
/// sweep and the critical-path walk, all in flat arrays: a CSR list of
/// span ids per lane id, and a CSR list of children per parent id. Span ids
/// order as the spans were emitted, so every tie-break on them keeps
/// emission order.
struct SpanDb {
  const Recorder* recorder = nullptr;
  std::vector<std::uint32_t> lanes;          // lanes with spans, by (kind, program, index, node)
  std::vector<std::uint32_t> lane_begin;     // lane id -> its range in `lane_spans`
  std::vector<SpanIndex> lane_spans;         // per lane, in emission order
  std::vector<std::uint32_t> child_begin;    // id -> its range in `children`
  std::vector<std::uint32_t> child_end;
  std::vector<SpanIndex> children;           // per parent id, ascending
  std::vector<Interval> degraded;            // union over every device's windows

  Recorder::SpanEvent at(SpanIndex i) const { return recorder->span(i); }
  const Track& track(std::uint32_t lane) const { return recorder->lanes()[lane]; }
  std::span<const SpanIndex> LaneSpans(std::uint32_t lane) const {
    return {lane_spans.data() + lane_begin[lane], lane_spans.data() + lane_begin[lane + 1]};
  }
  std::span<const SpanIndex> Children(std::uint32_t id) const {
    return {children.data() + child_begin[id], children.data() + child_end[id]};
  }
};

SpanDb BuildDb(const Recorder& recorder) {
  SpanDb db;
  db.recorder = &recorder;
  const std::size_t lanes = recorder.lanes().size();

  // Pass 1: spans per lane, the id range, and the number of children per
  // parent id (links included).
  db.lane_begin.assign(lanes + 1, 0);
  std::uint32_t max_id = 0;
  recorder.ForEachSpan([&](SpanIndex, const Recorder::SpanEvent& s) {
    ++db.lane_begin[s.lane + 1];
    max_id = std::max({max_id, s.self.id, s.parent.id});
  });
  for (const CausalLink& link : recorder.links())
    max_id = std::max({max_id, link.parent, link.child});
  db.child_end.assign(std::size_t{max_id} + 1, 0);
  recorder.ForEachSpan([&](SpanIndex, const Recorder::SpanEvent& s) {
    if (s.parent) ++db.child_end[s.parent.id];
  });
  for (const CausalLink& link : recorder.links()) ++db.child_end[link.parent];
  db.child_begin.resize(db.child_end.size());
  std::exclusive_scan(db.child_end.begin(), db.child_end.end(), db.child_begin.begin(), 0u);
  db.children.resize(db.child_begin.back() + db.child_end.back());
  db.child_end = db.child_begin;  // from here on, each parent's fill cursor

  // Lanes the prune hook emptied are skipped. The rest are sorted so that a
  // program's ranks are contiguous and in rank order, the order their
  // seconds are summed in.
  for (std::uint32_t lane = 0; lane < lanes; ++lane)
    if (db.lane_begin[lane + 1] != 0) db.lanes.push_back(lane);
  std::sort(db.lanes.begin(), db.lanes.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Track &ta = db.track(a), &tb = db.track(b);
    return std::tuple(ta.kind, ta.program, ta.index, ta.node) <
           std::tuple(tb.kind, tb.program, tb.index, tb.node);
  });
  std::inclusive_scan(db.lane_begin.begin(), db.lane_begin.end(), db.lane_begin.begin());
  std::vector<std::uint32_t> cursor(db.lane_begin.begin(), db.lane_begin.end() - 1);

  // Pass 2: fill the lists in span order, so each is ascending, and the
  // dense self-id table, where the first span carrying an id owns it.
  db.lane_spans.resize(recorder.span_count());
  std::vector<SpanIndex> by_self_id(std::size_t{max_id} + 1, kNoSpan);
  recorder.ForEachSpan([&](SpanIndex i, const Recorder::SpanEvent& s) {
    db.lane_spans[cursor[s.lane]++] = i;
    if (s.self && by_self_id[s.self.id] == kNoSpan) by_self_id[s.self.id] = i;
    if (s.parent) db.children[db.child_end[s.parent.id]++] = i;
    if (s.cat == Category::kDegraded) db.degraded.push_back({s.start, s.end});
  });

  // Cross-lane causal edges (e.g. close -> flush) append their children.
  // Links may name span ids that were never emitted (a zero-byte flush
  // returns early); those resolve to nothing. Only parents that gained
  // links are re-sorted and deduplicated.
  std::vector<std::uint32_t> linked;
  linked.reserve(recorder.links().size());
  for (const CausalLink& link : recorder.links()) {
    db.children[db.child_end[link.parent]++] = by_self_id[link.child];
    linked.push_back(link.parent);
  }
  std::sort(linked.begin(), linked.end());
  linked.erase(std::unique(linked.begin(), linked.end()), linked.end());
  for (std::uint32_t id : linked) {
    const auto first = db.children.begin() + db.child_begin[id];
    auto last = db.children.begin() + db.child_end[id];
    std::sort(first, last);
    last = std::unique(first, last);
    if (last != first && last[-1] == kNoSpan) --last;
    db.child_end[id] = static_cast<std::uint32_t>(last - db.children.begin());
  }
  db.degraded = UnionOf(std::move(db.degraded));
  return db;
}

/// Scratch of the per-rank sweep, reused across ranks so that an analysis
/// allocates it once.
struct Sweep {
  /// What the sweep reads of one tagged span. `order` is its place in the
  /// lane's emission order, the tie-break its span id gave.
  struct Tagged {
    Time start;
    Time end;
    double ideal;
    std::uint32_t order;
    Category cat;
  };
  std::vector<Tagged> tagged;
  std::vector<Time> bounds;
  std::vector<std::uint32_t> active;  // positions in `tagged`
};

/// Exact partition of one rank's window [min span start, max span end]:
/// interval sweep over its tagged spans; the highest-priority active span
/// wins each elementary interval and splits it ideal/(ideal+queue)-style;
/// uncovered time is compute. See docs/OBSERVABILITY.md.
RankBreakdown AnalyzeRank(const SpanDb& db, std::span<const SpanIndex> lane_spans, int rank,
                          Sweep& sweep) {
  RankBreakdown out;
  out.rank = rank;
  if (lane_spans.empty()) return out;

  // Each of the lane's spans is expanded once, here.
  Time lo = db.at(lane_spans.front()).start, hi = db.at(lane_spans.front()).end;
  std::vector<Sweep::Tagged>& tagged = sweep.tagged;
  tagged.clear();
  for (SpanIndex i : lane_spans) {
    const Recorder::SpanEvent s = db.at(i);
    lo = std::min(lo, s.start);
    hi = std::max(hi, s.end);
    if (s.cat != Category::kNone && s.cat != Category::kDegraded)
      tagged.push_back({s.start, s.end, s.ideal, static_cast<std::uint32_t>(tagged.size()), s.cat});
  }
  out.window_start = lo;
  out.window_end = hi;
  if (hi - lo <= kEps) return out;

  // Elementary boundaries: every tagged-span endpoint plus every degraded
  // boundary inside the window, so each elementary interval is either
  // fully in or fully out of any span and of the degraded union.
  std::vector<Time>& bounds = sweep.bounds;
  bounds.assign({lo, hi});
  for (const Sweep::Tagged& s : tagged) {
    if (s.start > lo && s.start < hi) bounds.push_back(s.start);
    if (s.end > lo && s.end < hi) bounds.push_back(s.end);
  }
  for (const Interval& iv : db.degraded) {
    if (iv.a > lo && iv.a < hi) bounds.push_back(iv.a);
    if (iv.b > lo && iv.b < hi) bounds.push_back(iv.b);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end(),
                           [](Time a, Time b) { return b - a <= kEps; }),
               bounds.end());

  // Sweep with an active set; boundaries include every span end, so after
  // pruning, every active span covers the whole elementary interval.
  std::sort(tagged.begin(), tagged.end(), [](const Sweep::Tagged& x, const Sweep::Tagged& y) {
    if (x.start != y.start) return x.start < y.start;
    return x.order < y.order;
  });
  std::vector<std::uint32_t>& active = sweep.active;
  active.clear();
  std::uint32_t next = 0;
  for (std::size_t bi = 0; bi + 1 < bounds.size(); ++bi) {
    const Time x = bounds[bi], y = bounds[bi + 1];
    while (next < tagged.size() && tagged[next].start <= x + kEps) active.push_back(next++);
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](std::uint32_t i) { return tagged[i].end <= x + kEps; }),
                 active.end());
    const Time dur = y - x;
    if (active.empty()) {
      out.seconds[static_cast<std::size_t>(Category::kCompute)] += dur;
      continue;
    }
    std::uint32_t win = active.front();
    for (std::uint32_t i : active) {
      const Sweep::Tagged &a = tagged[i], &b = tagged[win];
      const int pa = Priority(a.cat), pb = Priority(b.cat);
      if (pa != pb ? pa > pb : (a.start != b.start ? a.start < b.start : a.order < b.order))
        win = i;
    }
    const Sweep::Tagged& w = tagged[win];
    const Time span_dur = w.end - w.start;
    // The winner's `ideal` is its contention-free service time: that
    // fraction is genuine transfer, the excess is fair-share queuing.
    double r = 1.0;
    if (w.ideal > 0 && span_dur > kEps && w.ideal < span_dur)
      r = w.ideal / span_dur;
    Category cat = w.cat;
    if ((cat == Category::kPfs || cat == Category::kBb) && Covers(db.degraded, x, y))
      cat = Category::kDegraded;
    out.seconds[static_cast<std::size_t>(cat)] += r * dur;
    out.seconds[static_cast<std::size_t>(Category::kQueue)] += (1.0 - r) * dur;
  }
  return out;
}

/// The lanes of `program`'s ranks, in rank order.
std::span<const std::uint32_t> RankLanes(const SpanDb& db, int program) {
  const auto [first, last] = std::ranges::equal_range(
      db.lanes, std::pair(Track::Kind::kRank, program), {},
      [&](std::uint32_t lane) { return std::pair(db.track(lane).kind, db.track(lane).program); });
  return {first, last};
}

std::string WhereLabel(const Track& track) {
  std::string where = track.PidName();
  const std::string tid = track.TidName();
  if (tid.empty() || tid == where) return where;
  return where.append(" / ").append(tid);
}

/// Backward walk from the end of the slowest rank's window: at each
/// cursor, the covering span on the rank lane wins by category priority,
/// then descends through causal children (parent ids and AddLink edges)
/// to the innermost span still covering the cursor — that is the blame.
std::vector<PathSegment> CriticalPath(const SpanDb& db, std::span<const SpanIndex> lane_spans,
                                      Time window_start, Time window_end) {
  std::vector<PathSegment> path;
  constexpr std::size_t kMaxSegments = 256;
  constexpr int kMaxDepth = 16;

  auto better = [&](SpanIndex a, SpanIndex b) {  // true when a beats b
    const auto &sa = db.at(a), &sb = db.at(b);
    const bool ta = sa.cat != Category::kNone, tb = sb.cat != Category::kNone;
    if (ta != tb) return ta;  // tagged leaves beat untagged umbrellas
    const int pa = Priority(sa.cat), pb = Priority(sb.cat);
    if (pa != pb) return pa > pb;
    if (sa.end != sb.end) return sa.end > sb.end;
    if (sa.start != sb.start) return sa.start < sb.start;
    return a < b;
  };

  Time cursor = window_end;
  while (cursor > window_start + kEps && path.size() < kMaxSegments) {
    // Covering span on the rank lane at cursor⁻.
    SpanIndex chosen = static_cast<SpanIndex>(-1);
    for (SpanIndex i : lane_spans) {
      const auto& s = db.at(i);
      if (s.start < cursor - kEps && s.end >= cursor - kEps)
        if (chosen == static_cast<SpanIndex>(-1) || better(i, chosen)) chosen = i;
    }
    if (chosen == static_cast<SpanIndex>(-1)) {
      // Gap: nothing recorded — compute. Extend back to the previous end.
      Time prev = window_start;
      for (SpanIndex i : lane_spans) {
        const Time e = db.at(i).end;
        if (e < cursor - kEps) prev = std::max(prev, e);
      }
      path.push_back({prev, cursor, "compute", Category::kCompute, ""});
      cursor = prev;
      continue;
    }
    // Causal descent: prefer the innermost cause still covering cursor⁻.
    for (int depth = 0; depth < kMaxDepth; ++depth) {
      const std::uint32_t self = db.at(chosen).self.id;
      if (self == 0) break;
      SpanIndex deeper = static_cast<SpanIndex>(-1);
      for (SpanIndex i : db.Children(self)) {
        const auto& s = db.at(i);
        if (s.start < cursor - kEps && s.end >= cursor - kEps)
          if (deeper == static_cast<SpanIndex>(-1) || better(i, deeper)) deeper = i;
      }
      if (deeper == static_cast<SpanIndex>(-1)) break;
      chosen = deeper;
    }
    const auto& s = db.at(chosen);
    const Time seg_start = std::max(s.start, window_start);
    const Time seg_end = std::min(s.end, cursor);
    if (seg_end <= seg_start + kEps || seg_start >= cursor - kEps) {
      // No backward progress possible; close out as compute.
      path.push_back({window_start, cursor, "compute", Category::kCompute, ""});
      break;
    }
    const Category cat =
        s.cat == Category::kNone ? Category::kCompute : s.cat;
    path.push_back({seg_start, seg_end, db.recorder->name(s), cat,
                    WhereLabel(db.recorder->track(s))});
    cursor = seg_start;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string JsonStr(const std::string& s) {
  std::string quoted = "\"";
  return quoted.append(json::Escape(s)).append("\"");
}

}  // namespace

double RankBreakdown::attributed() const {
  double total = 0;
  for (double s : seconds) total += s;
  return total;
}

Report Analyze(const Recorder& recorder, const std::vector<JobSpec>& jobs, Time elapsed) {
  Report report;
  report.elapsed = elapsed;
  const SpanDb db = BuildDb(recorder);
  Sweep sweep;

  for (const JobSpec& spec : jobs) {
    JobBreakdown job;
    job.spec = spec;
    bool first = true;
    for (std::uint32_t lane : RankLanes(db, spec.program)) {
      RankBreakdown rank =
          AnalyzeRank(db, db.LaneSpans(lane), static_cast<int>(db.track(lane).index), sweep);
      if (first) {
        job.window_start = rank.window_start;
        job.window_end = rank.window_end;
        first = false;
      } else {
        job.window_start = std::min(job.window_start, rank.window_start);
        job.window_end = std::max(job.window_end, rank.window_end);
      }
      for (std::size_t c = 0; c < kCategoryCount; ++c) job.seconds[c] += rank.seconds[c];
      job.ranks.push_back(std::move(rank));
    }
    report.jobs.push_back(std::move(job));
  }

  // Critical path: slowest non-server job (latest window end; ties keep
  // job order), then its latest-finishing rank (ties keep lowest rank).
  const JobBreakdown* slow_job = nullptr;
  for (const JobBreakdown& job : report.jobs) {
    if (job.spec.is_server || job.ranks.empty()) continue;
    if (slow_job == nullptr || job.window_end > slow_job->window_end) slow_job = &job;
  }
  if (slow_job != nullptr) {
    const RankBreakdown* slow_rank = nullptr;
    for (const RankBreakdown& rank : slow_job->ranks)
      if (slow_rank == nullptr || rank.window_end > slow_rank->window_end)
        slow_rank = &rank;
    report.critical_job = slow_job->spec.name;
    report.critical_rank = slow_rank->rank;
    report.critical_elapsed = slow_rank->elapsed();
    for (std::uint32_t lane : RankLanes(db, slow_job->spec.program)) {
      if (db.track(lane).index != slow_rank->rank) continue;
      report.critical_path =
          CriticalPath(db, db.LaneSpans(lane), slow_rank->window_start, slow_rank->window_end);
      break;
    }
  }

  return report;
}

std::string ToText(const Report& report) {
  std::ostringstream os;

  {
    std::vector<std::string> header{"job", "ranks", "elapsed"};
    for (std::size_t c = 1; c < kCategoryCount; ++c)
      header.push_back(CategoryName(static_cast<Category>(c)));
    header.push_back("coverage");
    Table table(std::move(header));
    for (const JobBreakdown& job : report.jobs) {
      std::vector<std::string> row{job.spec.name, std::to_string(job.ranks.size()),
                                   HumanTime(job.elapsed())};
      double attributed = 0, windows = 0;
      for (const RankBreakdown& rank : job.ranks) {
        attributed += rank.attributed();
        windows += rank.elapsed();
      }
      for (std::size_t c = 1; c < kCategoryCount; ++c)
        row.push_back(FormatDouble(job.seconds[c], 2) + "s");
      row.push_back(windows > 0 ? FormatDouble(100.0 * attributed / windows, 1) + "%" : "-");
      table.AddRow(std::move(row));
    }
    os << "== time attribution (rank-seconds per category) ==\n" << table.ToString();
  }

  if (!report.critical_path.empty()) {
    os << "\n== critical path: " << report.critical_job << " rank " << report.critical_rank
       << " (elapsed " << HumanTime(report.critical_elapsed) << ") ==\n";
    Table table({"start", "duration", "category", "span", "where"});
    for (const PathSegment& seg : report.critical_path)
      table.AddRow({HumanTime(seg.start), HumanTime(seg.duration()),
                    CategoryName(seg.category), seg.name, seg.where});
    os << table.ToString();
  }

  if (!report.devices.empty()) {
    os << "\n== device USE (utilization / saturation / errors) ==\n";
    Table table({"device", "util", "busy", "queue-depth-s", "degraded", "errors"});
    for (const DeviceUse& use : report.devices)
      table.AddRow({use.device, FormatDouble(100.0 * use.utilization, 1) + "%",
                    HumanTime(use.busy), FormatDouble(use.saturation, 2),
                    HumanTime(use.degraded), std::to_string(use.errors)});
    os << table.ToString();
  }
  return os.str();
}

std::string AttributionJson(const Report& report) {
  std::ostringstream os;
  os << "{\"schema\":\"univistor.attribution.v1\"";
  os << ",\"elapsed\":" << json::Number(report.elapsed);

  os << ",\"jobs\":[";
  bool first_job = true;
  for (const JobBreakdown& job : report.jobs) {
    if (!first_job) os << ",";
    first_job = false;
    os << "{\"name\":" << JsonStr(job.spec.name) << ",\"program\":" << job.spec.program
       << ",\"is_server\":" << (job.spec.is_server ? "true" : "false")
       << ",\"ranks\":" << job.ranks.size() << ",\"elapsed\":" << json::Number(job.elapsed());
    double windows = 0;
    for (const RankBreakdown& rank : job.ranks) windows += rank.elapsed();
    os << ",\"rank_window_seconds\":" << json::Number(windows) << ",\"categories\":{";
    for (std::size_t c = 1; c < kCategoryCount; ++c) {
      if (c > 1) os << ",";
      os << JsonStr(CategoryName(static_cast<Category>(c))) << ":" << json::Number(job.seconds[c]);
    }
    os << "}}";
  }
  os << "]";

  os << ",\"critical_path\":{\"job\":" << JsonStr(report.critical_job)
     << ",\"rank\":" << report.critical_rank
     << ",\"elapsed\":" << json::Number(report.critical_elapsed) << ",\"segments\":[";
  bool first_seg = true;
  for (const PathSegment& seg : report.critical_path) {
    if (!first_seg) os << ",";
    first_seg = false;
    os << "{\"start\":" << json::Number(seg.start) << ",\"end\":" << json::Number(seg.end)
       << ",\"category\":" << JsonStr(CategoryName(seg.category))
       << ",\"name\":" << JsonStr(seg.name) << ",\"where\":" << JsonStr(seg.where) << "}";
  }
  os << "]}";

  os << ",\"devices\":[";
  bool first_dev = true;
  for (const DeviceUse& use : report.devices) {
    if (!first_dev) os << ",";
    first_dev = false;
    os << "{\"device\":" << JsonStr(use.device)
       << ",\"utilization\":" << json::Number(use.utilization)
       << ",\"saturation\":" << json::Number(use.saturation)
       << ",\"busy\":" << json::Number(use.busy)
       << ",\"degraded\":" << json::Number(use.degraded) << ",\"errors\":" << use.errors << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace uvs::obs
