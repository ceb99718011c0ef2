// Tests for the obs:: tracing and metrics layer: recorder/metrics unit
// behavior, track naming and lanes, sampler cadence, and an end-to-end UniviStor run
// validating that the emitted Chrome trace and metrics report are
// well-formed JSON carrying the expected spans and counters.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/hw/probes.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/legs.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/sampler.hpp"
#include "src/sim/sync.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/hdf_micro.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

// --- Minimal recursive-descent JSON well-formedness checker. ---

class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker c(text);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.p_ == c.end_;
  }

 private:
  explicit JsonChecker(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }
  bool Literal(const char* lit) {
    const char* q = p_;
    for (; *lit != '\0'; ++lit, ++q)
      if (q == end_ || *q != *lit) return false;
    p_ = q;
    return true;
  }
  bool String() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      if (std::isdigit(static_cast<unsigned char>(*p_))) digits = true;
      ++p_;
    }
    return digits && p_ != start;
  }
  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (p_ != end_ && *p_ == '}') return ++p_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') return ++p_, true;
      return false;
    }
  }
  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (p_ != end_ && *p_ == ']') return ++p_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') return ++p_, true;
      return false;
    }
  }
  bool Value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  const char* p_;
  const char* end_;
};

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker::Valid(R"({"a":[1,2.5,-3e4],"b":{"c":"x\"y"},"d":null})"));
  EXPECT_TRUE(JsonChecker::Valid("[]"));
  EXPECT_FALSE(JsonChecker::Valid(R"({"a":1,})"));
  EXPECT_FALSE(JsonChecker::Valid(R"({"a":})"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":1}{"));
  EXPECT_FALSE(JsonChecker::Valid("\"unterminated"));
}

// --- Metrics registry units. ---

TEST(Metrics, CountersGaugesDistributions) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c").Add();
  registry.GetCounter("c").Add(9);
  EXPECT_EQ(registry.GetCounter("c").value(), 10u);

  registry.GetGauge("g").Set(2.5);
  registry.GetGauge("g").Set(-1.0);
  EXPECT_EQ(registry.GetGauge("g").value(), -1.0);

  auto& dist = registry.GetDistribution("d");
  dist.AttachBuckets(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) dist.Observe(static_cast<double>(i) + 0.5);
  EXPECT_EQ(dist.stats().count(), 10u);
  ASSERT_NE(dist.buckets(), nullptr);
  EXPECT_EQ(dist.buckets()->total(), 10u);
}

TEST(Metrics, RegistryReferencesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.GetCounter("stable");
  for (int i = 0; i < 100; ++i) registry.GetCounter("filler-" + std::to_string(i));
  EXPECT_EQ(&first, &registry.GetCounter("stable"));
}

TEST(Metrics, LiteralAndStringLookupsReachOneMetric) {
  obs::MetricsRegistry registry;
  // Longer than the small-string buffer, like meta.insert.records.
  const std::string name = "meta.insert.records";
  obs::Counter& counter = registry.GetCounter("meta.insert.records");
  EXPECT_EQ(&counter, &registry.GetCounter(name));
  EXPECT_EQ(&counter, &registry.GetCounter(std::string_view(name)));
  obs::Gauge& gauge = registry.GetGauge("g");
  EXPECT_EQ(&gauge, &registry.GetGauge(std::string("g")));
  obs::Distribution& dist = registry.GetDistribution("meta.rpc.latency");
  EXPECT_EQ(&dist, &registry.GetDistribution(std::string("meta.rpc.latency")));

  // Export order is the names' lexicographic order, whatever the lookup
  // type or insertion order.
  for (const char* n : {"b", "a.z", "a"}) registry.GetCounter(n);
  registry.GetCounter(std::string("c.a.name.longer.than.sso"));
  std::vector<std::string> order;
  for (const auto& [key, value] : registry.counters()) order.push_back(key);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "a.z", "b", "c.a.name.longer.than.sso",
                                             "meta.insert.records"}));

  obs::Recorder recorder;
  recorder.Install();
  obs::Count("meta.insert.records", 2);
  obs::Count("meta.insert.records");
  recorder.Uninstall();
  EXPECT_EQ(recorder.metrics().GetCounter(name).value(), 3u);
  EXPECT_EQ(recorder.metrics().counters().size(), 1u);
}

// --- Span log: block storage, interning, in-place eviction. ---

constexpr const char* kSpanNames[] = {"write", "rpc.service", "md.queue"};

/// A span whose every field is a function of `i`, so survivors of an
/// eviction can be told apart.
void AddNumberedSpan(obs::Recorder& recorder, std::size_t i) {
  const obs::SpanTag tag{.cat = static_cast<obs::Category>(i % obs::kCategoryCount),
                         .parent = obs::SpanRef{static_cast<std::uint32_t>(i / 3)},
                         .self = obs::SpanRef{static_cast<std::uint32_t>(i + 1)},
                         .ideal = 0.5 * static_cast<double>(i)};
  recorder.AddSpanTagged(i % 2 == 0 ? "vmpi" : "meta", kSpanNames[i % 3],
                         obs::Track::Rank(static_cast<int>(i % 7), 0, static_cast<int>(i % 64)),
                         static_cast<Time>(i), static_cast<Time>(i) + 0.25,
                         i % 5 == 0 ? obs::kNoBytes : i, tag);
}

/// Every recorded span, in emission order, as the readers see them.
std::vector<obs::Recorder::SpanEvent> Spans(const obs::Recorder& recorder) {
  std::vector<obs::Recorder::SpanEvent> spans;
  recorder.ForEachSpan(
      [&](obs::Recorder::SpanId, const obs::Recorder::SpanEvent& span) { spans.push_back(span); });
  return spans;
}

void ExpectSameSpans(const obs::Recorder& recorder,
                     const std::vector<obs::Recorder::SpanEvent>& expected) {
  ASSERT_EQ(recorder.span_count(), expected.size());
  const std::vector<obs::Recorder::SpanEvent> spans = Spans(recorder);
  ASSERT_EQ(spans.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const obs::Recorder::SpanEvent& got = spans[i];
    const obs::Recorder::SpanEvent& want = expected[i];
    ASSERT_EQ(got.start, want.start) << "span " << i;
    ASSERT_EQ(got.end, want.end) << "span " << i;
    ASSERT_EQ(got.bytes, want.bytes) << "span " << i;
    ASSERT_EQ(got.ideal, want.ideal) << "span " << i;
    ASSERT_EQ(got.lane, want.lane) << "span " << i;
    ASSERT_EQ(got.self, want.self) << "span " << i;
    ASSERT_EQ(got.parent, want.parent) << "span " << i;
    ASSERT_EQ(got.kind, want.kind) << "span " << i;
    ASSERT_EQ(got.cat, want.cat) << "span " << i;
  }
}

TEST(SpanLog, RecordsAcrossBlocksAndInternsKinds) {
  constexpr std::size_t kBlock = obs::Recorder::SpanLog::kBlockSpans;
  const std::size_t count = 3 * kBlock + 17;
  obs::Recorder recorder;
  for (std::size_t i = 0; i < count; ++i) AddNumberedSpan(recorder, i);
  ASSERT_EQ(recorder.span_count(), count);
  std::vector<obs::Recorder::SpanEvent> spans = Spans(recorder);
  ASSERT_EQ(spans.size(), count);
  for (std::size_t i : {std::size_t{0}, kBlock - 1, kBlock, 2 * kBlock + 5, count - 1}) {
    const obs::Recorder::SpanEvent& span = spans[i];
    EXPECT_EQ(span.start, static_cast<Time>(i));
    EXPECT_EQ(span.self.id, i + 1);
    EXPECT_EQ(span.parent.id, i / 3);
    EXPECT_EQ(span.ideal, 0.5 * static_cast<double>(i));
    EXPECT_EQ(span.bytes, i % 5 == 0 ? obs::kNoBytes : i);
    EXPECT_EQ(recorder.track(span),
              obs::Track::Rank(static_cast<int>(i % 7), 0, static_cast<int>(i % 64)));
  }

  // category() and name() hand back the very literals the span was
  // emitted with; equal pairs share one kind.
  const char* kCat = "hw";
  const char* kName = "ost.access";
  recorder.AddSpan(kCat, kName, obs::Track::Ost(1), 1.0, 2.0);
  recorder.AddSpan(kCat, kName, obs::Track::Ost(2), 3.0, 4.0);
  spans = Spans(recorder);
  const obs::Recorder::SpanEvent& a = spans[count];
  const obs::Recorder::SpanEvent& b = spans[count + 1];
  EXPECT_EQ(recorder.category(a), kCat);
  EXPECT_EQ(recorder.name(a), kName);
  EXPECT_EQ(a.kind, b.kind);
  for (std::size_t i = 2 * kBlock - 3; i < 2 * kBlock + 3; ++i) {
    EXPECT_EQ(recorder.name(spans[i]), kSpanNames[i % 3]);
    EXPECT_STREQ(recorder.category(spans[i]), i % 2 == 0 ? "vmpi" : "meta");
  }
  EXPECT_NE(spans[0].kind, spans[1].kind);
}

TEST(SpanLog, EraseSpansIfMatchesAVectorReference) {
  constexpr std::size_t kBlock = obs::Recorder::SpanLog::kBlockSpans;
  const std::size_t count = 3 * kBlock + 900;
  obs::Recorder recorder;
  for (std::size_t i = 0; i < count; ++i) AddNumberedSpan(recorder, i);
  std::vector<obs::Recorder::SpanEvent> reference = Spans(recorder);
  ASSERT_EQ(reference.size(), count);

  // Drops a run straddling the first block boundary, every third span of
  // the second block, and the tail of the last block.
  auto drop = [&](const obs::Recorder::SpanEvent& s) {
    const auto i = static_cast<std::size_t>(s.start);
    return (i + 200 >= kBlock && i < kBlock + 300) ||
           (i >= kBlock && i < 2 * kBlock && i % 3 == 0) || i >= 3 * kBlock + 400;
  };
  const std::size_t removed = recorder.EraseSpansIf(drop);
  const std::size_t expected_removed = std::erase_if(reference, drop);
  EXPECT_EQ(removed, expected_removed);
  EXPECT_EQ(recorder.spans_pruned(), expected_removed);
  ExpectSameSpans(recorder, reference);

  // Emptying whole blocks releases them; recording resumes at the end.
  auto drop_late = [&](const obs::Recorder::SpanEvent& s) { return s.start >= 2.0 * kBlock; };
  const std::size_t late = recorder.EraseSpansIf(drop_late);
  EXPECT_EQ(late, std::erase_if(reference, drop_late));
  EXPECT_EQ(recorder.spans_pruned(), expected_removed + late);
  for (std::size_t i = count; i < count + kBlock + 3; ++i) AddNumberedSpan(recorder, i);
  const std::vector<obs::Recorder::SpanEvent> all = Spans(recorder);
  reference.insert(reference.end(), all.end() - static_cast<std::ptrdiff_t>(kBlock + 3),
                   all.end());
  ExpectSameSpans(recorder, reference);
  EXPECT_EQ(Spans(recorder).back().start, static_cast<Time>(count + kBlock + 2));
  EXPECT_EQ(recorder.EraseSpansIf([](const obs::Recorder::SpanEvent&) { return false; }), 0u);
  ExpectSameSpans(recorder, reference);
}

// --- Metadata-RPC records: one slot, read back as the four spans. ---

using RpcTimes = obs::Recorder::RpcTimes;

/// Adds one metadata RPC either as one record or as the spans it stands
/// for, one AddSpanTagged call each, in the order UniviStor emitted them
/// before records existed. Its md.queue span exists only if it waited.
void AddRpc(obs::Recorder& rec, bool as_record, const obs::Track& rank,
            const obs::Track& server, obs::SpanRef parent, RpcTimes t) {
  const bool waited = t.serviced > t.queued;
  if (as_record) {
    rec.AddMetadataRpc(rank, server, parent, t,
                       obs::Recorder::kRpcService | obs::Recorder::kRpcRoundtrip |
                           (waited ? obs::Recorder::kRpcQueue : 0) |
                           obs::Recorder::kRpcRankService);
    return;
  }
  rec.AddSpanTagged("meta", "rpc.service", server, t.serviced, t.end, obs::kNoBytes,
                    {.parent = parent});
  rec.AddSpanTagged("meta", "md.roundtrip", rank, t.start, t.queued, obs::kNoBytes,
                    {.cat = obs::Category::kNet, .parent = parent});
  if (waited)
    rec.AddSpanTagged("meta", "md.queue", rank, t.queued, t.serviced, obs::kNoBytes,
                      {.cat = obs::Category::kQueue, .parent = parent});
  rec.AddSpanTagged("meta", "md.service", rank, t.serviced, t.end, obs::kNoBytes,
                    {.cat = obs::Category::kMeta, .parent = parent});
}

/// Three ranks, four writes each: every write issues one metadata RPC to
/// one of two servers (ranks 1 and 2 wait in the queue, rank 0 does not),
/// then an OST access, and closes an umbrella span the others name as
/// their causal parent. 68 spans, 44 of them RPC parts.
void RecordRpcScript(obs::Recorder& rec, bool as_records) {
  for (int op = 0; op < 4; ++op) {
    for (int r = 0; r < 3; ++r) {
      const Time t = 2.0 * op + 0.1 * r;
      const obs::Track rank = obs::Track::Rank(r, 0, r);
      const obs::SpanRef write = rec.NewSpanRef();
      const Time queued = t + 0.1, serviced = queued + 0.05 * r, end = serviced + 0.3;
      AddRpc(rec, as_records, rank, obs::Track::MetaServer(r % 2, 1, r % 2), write,
             {t, queued, serviced, end});
      rec.AddSpanTagged("hw", "ost.access", obs::Track::Ost(r), end, end + 0.5, 1_MiB,
                        {.cat = obs::Category::kPfs, .parent = write, .ideal = 0.25});
      rec.AddSpanTagged("vmpi", "write", rank, t, end + 0.5, 1_MiB, {.self = write});
    }
  }
}
constexpr std::size_t kRpcScriptSpans = 68;

/// Everything a reader can see of a recorder: the trace, the analysis as
/// text and JSON, the span counters, and the flight recorder's ring.
struct Observed {
  std::string trace, text, json, ring;
  std::size_t spans = 0;
  std::uint64_t dropped = 0, pruned = 0;
};

Observed Observe(const obs::Recorder& rec, const obs::FlightRecorder& ring) {
  const std::vector<obs::JobSpec> jobs{{0, "app", false, 3}, {1, "md", true, 2}};
  const obs::Report report = obs::Analyze(rec, jobs, 10.0);
  return {rec.ChromeTraceJson(), obs::ToText(report), obs::AttributionJson(report),
          ring.ToJson("test"), rec.span_count(), rec.spans_dropped(), rec.spans_pruned()};
}

void ExpectSameObserved(const Observed& record, const Observed& spans) {
  EXPECT_EQ(record.trace, spans.trace);
  EXPECT_EQ(record.text, spans.text);
  EXPECT_EQ(record.json, spans.json);
  EXPECT_EQ(record.ring, spans.ring);
  EXPECT_EQ(record.spans, spans.spans);
  EXPECT_EQ(record.dropped, spans.dropped);
  EXPECT_EQ(record.pruned, spans.pruned);
}

/// Evicts every span on a metadata-server lane and every queue span: for a
/// record, some of its parts and not others.
std::size_t PruneServerAndQueueSpans(obs::Recorder& rec) {
  return rec.EraseSpansIf([&](const obs::Recorder::SpanEvent& s) {
    return rec.track(s).kind == obs::Track::Kind::kMetaServer || s.cat == obs::Category::kQueue;
  });
}

Observed RunRpcScript(bool as_records, std::size_t limit, bool prune) {
  obs::FlightRecorder ring(1024);
  obs::FlightRecorder::ScopedBind bind(ring);
  obs::Recorder rec;
  rec.SetSpanLimit(limit);
  if (prune) rec.SetPruneHook(PruneServerAndQueueSpans);
  RecordRpcScript(rec, as_records);
  return Observe(rec, ring);
}

TEST(MetadataRpcRecord, ReadsAsTheSpansItReplaces) {
  const Observed record = RunRpcScript(true, obs::Recorder::kDefaultSpanLimit, false);
  ExpectSameObserved(record, RunRpcScript(false, obs::Recorder::kDefaultSpanLimit, false));
  EXPECT_EQ(record.spans, kRpcScriptSpans);
  EXPECT_EQ(record.dropped, 0u);
  for (const char* name : {"\"name\":\"rpc.service\"", "\"name\":\"md.roundtrip\"",
                           "\"name\":\"md.queue\"", "\"name\":\"md.service\""})
    EXPECT_NE(record.trace.find(name), std::string::npos) << name;

  // Read back through the accessor, a record is its parts, in part order,
  // each with its own id, and span(id) returns the same span.
  obs::Recorder rec;
  const obs::Track rank = obs::Track::Rank(2, 0, 5), server = obs::Track::MetaServer(1, 1, 3);
  AddRpc(rec, true, rank, server, obs::SpanRef{9}, {1.0, 1.5, 2.5, 3.0});
  AddRpc(rec, true, rank, server, obs::SpanRef{9}, {4.0, 4.5, 4.5, 5.0});
  struct Want {
    const char* name;
    obs::Track track;
    Time start, end;
    obs::Category cat;
  };
  const Want wants[] = {
      {"rpc.service", server, 2.5, 3.0, obs::Category::kNone},
      {"md.roundtrip", rank, 1.0, 1.5, obs::Category::kNet},
      {"md.queue", rank, 1.5, 2.5, obs::Category::kQueue},
      {"md.service", rank, 2.5, 3.0, obs::Category::kMeta},
      {"rpc.service", server, 4.5, 5.0, obs::Category::kNone},
      {"md.roundtrip", rank, 4.0, 4.5, obs::Category::kNet},
      {"md.service", rank, 4.5, 5.0, obs::Category::kMeta},
  };
  ASSERT_EQ(rec.span_count(), std::size(wants));
  std::size_t i = 0;
  std::set<obs::Recorder::SpanId> ids;
  rec.ForEachSpan([&](obs::Recorder::SpanId id, const obs::Recorder::SpanEvent& span) {
    ASSERT_LT(i, std::size(wants));
    const Want& want = wants[i++];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(std::string_view(rec.name(span)), want.name);
    EXPECT_STREQ(rec.category(span), "meta");
    EXPECT_EQ(rec.track(span), want.track);
    EXPECT_EQ(span.start, want.start);
    EXPECT_EQ(span.end, want.end);
    EXPECT_EQ(span.cat, want.cat);
    EXPECT_EQ(span.parent, obs::SpanRef{9});
    EXPECT_FALSE(span.self);
    EXPECT_EQ(span.bytes, obs::kNoBytes);
    EXPECT_EQ(span.ideal, 0.0);
    EXPECT_TRUE(ids.empty() || id > *ids.rbegin()) << "ids ascend in emission order";
    ids.insert(id);
    const obs::Recorder::SpanEvent again = rec.span(id);
    EXPECT_EQ(again.start, span.start);
    EXPECT_EQ(again.end, span.end);
    EXPECT_EQ(again.lane, span.lane);
    EXPECT_EQ(again.kind, span.kind);
    EXPECT_EQ(again.cat, span.cat);
  });
  EXPECT_EQ(i, std::size(wants));
}

TEST(MetadataRpcRecord, EveryCapWithAndWithoutAPruneHookCountsAndKeepsTheSameSpans) {
  // The cap, and the prune it triggers, fall before, between and after the
  // parts of every RPC in turn.
  for (const bool prune : {false, true}) {
    for (std::size_t limit = 0; limit <= kRpcScriptSpans + 1; ++limit) {
      SCOPED_TRACE(testing::Message() << "limit " << limit << (prune ? " with" : " without")
                                      << " prune hook");
      const Observed record = RunRpcScript(true, limit, prune);
      ExpectSameObserved(record, RunRpcScript(false, limit, prune));
      EXPECT_LE(record.spans, limit);
      EXPECT_EQ(record.spans + record.dropped + record.pruned, kRpcScriptSpans);
      if (prune && limit > 0 && limit < kRpcScriptSpans) {
        EXPECT_GT(record.pruned, 0u);
      }
    }
  }
}

TEST(MetadataRpcRecord, ErasingOnlyTheServerPartKeepsTheRankParts) {
  const auto erase = [](obs::Recorder& rec, auto drop) {
    const std::uint64_t pruned = rec.spans_pruned();
    const std::size_t removed = rec.EraseSpansIf(drop);
    EXPECT_EQ(rec.spans_pruned(), pruned + removed);
    return removed;
  };
  const auto server_part = [](const obs::Recorder& rec) {
    return [&rec](const obs::Recorder::SpanEvent& s) {
      return rec.track(s).kind == obs::Track::Kind::kMetaServer;
    };
  };
  Observed observed[2];
  for (const bool as_records : {true, false}) {
    obs::FlightRecorder ring(1024);
    obs::FlightRecorder::ScopedBind bind(ring);
    obs::Recorder rec;
    RecordRpcScript(rec, as_records);
    EXPECT_EQ(erase(rec, server_part(rec)), 12u) << "one rpc.service per RPC";
    EXPECT_EQ(rec.span_count(), kRpcScriptSpans - 12);
    EXPECT_EQ(rec.ChromeTraceJson().find("rpc.service"), std::string::npos);
    EXPECT_NE(rec.ChromeTraceJson().find("md.service"), std::string::npos);
    // Then the queue parts: the records left hold round trip and service.
    EXPECT_EQ(erase(rec, [](const obs::Recorder::SpanEvent& s) {
                return s.cat == obs::Category::kQueue;
              }),
              8u);
    // Spans recorded after an eviction follow the survivors.
    AddRpc(rec, as_records, obs::Track::Rank(0, 0, 0), obs::Track::MetaServer(0, 1, 0),
           obs::SpanRef{}, {9.0, 9.5, 9.75, 10.0});
    observed[as_records ? 0 : 1] = Observe(rec, ring);
  }
  ExpectSameObserved(observed[0], observed[1]);
  EXPECT_EQ(observed[0].spans, kRpcScriptSpans - 12 - 8 + 4);
}

/// One metadata RPC from rank `r` to a server whose service queue is
/// `queue`: a 0.25 s round trip, the wait for the queue, then 1 s of
/// service, recorded by a MetadataRpcTimer or, for comparison, by the
/// SpanTimer and three spans UniviStor used before records existed.
sim::Task ServeRpc(sim::Engine& eng, sim::Mutex& queue, bool as_record, int r) {
  const obs::Track rank = obs::Track::Rank(0, 0, r);
  const obs::Track server = obs::Track::MetaServer(0, 1, 0);
  const obs::SpanRef parent{static_cast<std::uint32_t>(r + 1)};
  const Time start = eng.Now();
  co_await eng.Delay(0.25);
  const Time queued = eng.Now();
  auto guard = co_await queue.Lock();
  if (as_record) {
    obs::MetadataRpcTimer rpc(eng, server, parent);
    co_await eng.Delay(1.0);
    rpc.Complete(rank, start, queued);
    co_return;
  }
  const Time serviced = eng.Now();
  {
    obs::SpanTimer span(eng, "meta", "rpc.service", server, obs::kNoBytes, {.parent = parent});
    co_await eng.Delay(1.0);
  }
  if (obs::Recorder* rec = obs::Recorder::Current()) {
    rec->AddSpanTagged("meta", "md.roundtrip", rank, start, queued, obs::kNoBytes,
                       {.cat = obs::Category::kNet, .parent = parent});
    if (serviced > queued)
      rec->AddSpanTagged("meta", "md.queue", rank, queued, serviced, obs::kNoBytes,
                         {.cat = obs::Category::kQueue, .parent = parent});
    rec->AddSpanTagged("meta", "md.service", rank, serviced, eng.Now(), obs::kNoBytes,
                       {.cat = obs::Category::kMeta, .parent = parent});
  }
}

/// Three RPCs to one server, the first served at once, the others queued;
/// the engine runs to `until` and abandons what is left.
Observed RunServedRpcs(bool as_records, Time until) {
  obs::FlightRecorder ring(1024);
  obs::FlightRecorder::ScopedBind bind(ring);
  obs::Recorder rec;
  rec.Install();
  {
    sim::Engine engine;
    sim::Mutex queue(engine);
    for (int r = 0; r < 3; ++r) engine.Spawn(ServeRpc(engine, queue, as_records, r));
    engine.RunUntil(until);
    engine.Abandon();
  }
  rec.Uninstall();
  return Observe(rec, ring);
}

TEST(MetadataRpcRecord, TimerRecordsServedAndAbandonedRpcsAsTheSpansDid) {
  // Served to the end: rank 0 never waits (three spans), ranks 1 and 2 do.
  const Observed served = RunServedRpcs(true, 10.0);
  ExpectSameObserved(served, RunServedRpcs(false, 10.0));
  EXPECT_EQ(served.spans, 3u + 4u + 4u);

  // Abandoned at 1.75 s: rank 0 is done, rank 1 is in service since 1.25 s
  // and rank 2 is still queued.
  const Observed abandoned = RunServedRpcs(true, 1.75);
  ExpectSameObserved(abandoned, RunServedRpcs(false, 1.75));
  EXPECT_EQ(abandoned.spans, 3u + 1u);
  const auto trace = json::Parse(abandoned.trace);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  int rank1_spans = 0;
  for (const json::Value& event : trace->Find("traceEvents")->AsArray()) {
    if (event.StringOr("ph", "") != "X" || event.Find("args")->NumberOr("parent", 0) != 2)
      continue;
    ++rank1_spans;
    EXPECT_EQ(event.StringOr("name", ""), "rpc.service");
    EXPECT_EQ(event.NumberOr("ts", -1), 1.25e6);
    EXPECT_EQ(event.NumberOr("dur", -1), 0.5e6);
  }
  EXPECT_EQ(rank1_spans, 1) << "an RPC abandoned in service leaves only rpc.service";
}

// --- Track naming. ---

TEST(Track, SelfDescribingNames) {
  EXPECT_EQ(obs::Track::Rank(3, 1, 42).PidName(), "node 3");
  EXPECT_EQ(obs::Track::Rank(3, 1, 42).TidName(), "rank 42 (prog 1)");
  EXPECT_EQ(obs::Track::MetaServer(0, 1, 7).TidName(), "md server 7");
  EXPECT_EQ(obs::Track::Flush(2).PidName(), "simulator");
  EXPECT_EQ(obs::Track::Flush(2).TidName(), "flush file 2");
  EXPECT_EQ(obs::Track::PfsIo(1, 0).TidName(), "pfs file 0");
  EXPECT_EQ(obs::Track::BbNode(4).PidName(), "bb 4");
  EXPECT_EQ(obs::Track::Ost(9).PidName(), "ost 9");
  EXPECT_EQ(obs::Track::Ost(9).TidName(), "device");
}

// --- Lanes: one per distinct track, whatever its field values. ---

TEST(Lanes, EveryTrackGetsItsOwnNamedLane) {
  // Packed into one int32 (pid, tid) pair, program 30000 overflowed, rank
  // 100000 of program 0 shared a lane with rank 0 of program 1, and flush
  // file 10^6 was labelled "pfs file 0".
  const obs::Track tracks[] = {obs::Track::Rank(0, 30000, 5), obs::Track::Rank(0, 0, 100000),
                               obs::Track::Rank(0, 1, 0), obs::Track::Flush(1000000)};
  const std::string labels[] = {"rank 5 (prog 30000)", "rank 100000 (prog 0)", "rank 0 (prog 1)",
                                "flush file 1000000"};
  obs::Recorder recorder;
  for (std::size_t i = 0; i < std::size(tracks); ++i) {
    const Time start = 1.0 + static_cast<double>(i);
    recorder.AddSpanTagged("test", "op", tracks[i], start, start + 1.0, obs::kNoBytes,
                           {.cat = obs::Category::kQueue});
  }

  ASSERT_EQ(recorder.lanes().size(), std::size(tracks));
  std::set<std::uint32_t> lanes;
  const std::vector<obs::Recorder::SpanEvent> spans = Spans(recorder);
  ASSERT_EQ(spans.size(), std::size(tracks));
  for (std::size_t i = 0; i < std::size(tracks); ++i) {
    const obs::Recorder::SpanEvent& span = spans[i];
    EXPECT_EQ(recorder.track(span), tracks[i]) << labels[i];
    lanes.insert(span.lane);
  }
  EXPECT_EQ(lanes.size(), std::size(tracks));

  // The trace names each lane and draws its span there.
  const auto trace = json::Parse(recorder.ChromeTraceJson());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::map<std::string, std::pair<double, double>> lane_of;  // label -> (pid, tid)
  std::vector<std::pair<double, double>> span_lanes;
  for (const json::Value& event : trace->Find("traceEvents")->AsArray()) {
    const std::pair<double, double> ids{event.NumberOr("pid", -1), event.NumberOr("tid", -1)};
    if (event.StringOr("name", "") == "thread_name")
      lane_of[event.Find("args")->StringOr("name", "")] = ids;
    else if (event.StringOr("ph", "") == "X")
      span_lanes.push_back(ids);
  }
  ASSERT_EQ(lane_of.size(), std::size(tracks));
  ASSERT_EQ(span_lanes.size(), std::size(tracks));
  for (std::size_t i = 0; i < std::size(tracks); ++i) {
    ASSERT_TRUE(lane_of.contains(labels[i])) << labels[i];
    EXPECT_EQ(span_lanes[i], lane_of[labels[i]]) << labels[i];
  }
  EXPECT_EQ(lane_of["rank 5 (prog 30000)"].first, lane_of["rank 0 (prog 1)"].first)
      << "ranks on node 0 share its process";
  EXPECT_EQ(lane_of["flush file 1000000"].first, 0) << "the simulator process";

  // Each program's analysis sees exactly its own rank.
  const obs::Report report =
      obs::Analyze(recorder, {{30000, "big", false, 6}, {0, "wide", false, 100001}}, 10.0);
  ASSERT_EQ(report.jobs.size(), 2u);
  ASSERT_EQ(report.jobs[0].ranks.size(), 1u);
  EXPECT_EQ(report.jobs[0].ranks[0].rank, 5);
  EXPECT_EQ(report.jobs[0].window_start, 1.0);
  EXPECT_EQ(report.jobs[0].window_end, 2.0);
  ASSERT_EQ(report.jobs[1].ranks.size(), 1u);
  EXPECT_EQ(report.jobs[1].ranks[0].rank, 100000);
  EXPECT_EQ(report.jobs[1].window_start, 2.0);
  EXPECT_EQ(report.jobs[1].window_end, 3.0);
}

// --- Enable/disable semantics. ---

TEST(Recorder, HelpersAreNoOpsWhenNotInstalled) {
  ASSERT_FALSE(obs::Enabled());
  obs::Count("nobody.home", 5);  // must not crash or allocate a registry
  obs::SetGauge("nobody.home", 1.0);
  obs::Observe("nobody.home", 1.0);

  obs::Recorder recorder;
  EXPECT_FALSE(recorder.installed());
  recorder.Install();
  EXPECT_TRUE(recorder.installed());
  EXPECT_TRUE(obs::Enabled());
  obs::Count("hello", 2);
  recorder.Uninstall();
  EXPECT_FALSE(obs::Enabled());
  obs::Count("hello", 100);  // dropped: recorder detached
  EXPECT_EQ(recorder.metrics().GetCounter("hello").value(), 2u);
}

TEST(Recorder, InstallationIsPerThread) {
  // Worker-pool isolation: a recorder installed on the main thread must be
  // invisible to worker threads, whose runs observe nothing unless they
  // install their own recorder.
  obs::Recorder main_rec;
  main_rec.Install();
  obs::Count("main.counter", 1);

  obs::Recorder worker_rec;
  std::thread worker([&worker_rec] {
    EXPECT_FALSE(obs::Enabled());
    obs::Count("worker.dropped", 7);  // no recorder bound on this thread
    worker_rec.Install();
    EXPECT_EQ(obs::Recorder::Current(), &worker_rec);
    obs::Count("worker.counter", 3);
    worker_rec.Uninstall();
  });
  worker.join();

  EXPECT_EQ(obs::Recorder::Current(), &main_rec);
  obs::Count("main.counter", 1);
  main_rec.Uninstall();
  EXPECT_EQ(main_rec.metrics().GetCounter("main.counter").value(), 2u);
  EXPECT_EQ(main_rec.metrics().GetCounter("worker.counter").value(), 0u);
  EXPECT_EQ(main_rec.metrics().GetCounter("worker.dropped").value(), 0u);
  EXPECT_EQ(worker_rec.metrics().GetCounter("worker.counter").value(), 3u);
}

TEST(Recorder, SpanTimerRecordsEngineTime) {
  sim::Engine engine;
  obs::Recorder recorder;
  recorder.Install();
  engine.Spawn([](sim::Engine& eng) -> sim::Task {
    obs::SpanTimer span(eng, "test", "wait", obs::Track::Ost(0), 128);
    co_await eng.Delay(2.0);
  }(engine));
  engine.Run();
  recorder.Uninstall();
  ASSERT_EQ(recorder.span_count(), 1u);
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"name\":\"wait\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000"), std::string::npos) << "2 s = 2e6 us";
  EXPECT_NE(json.find("\"bytes\":128"), std::string::npos);
}

// --- obs::Legs: the one builder of tagged concurrent legs. ---

sim::Task Sleep(sim::Engine& engine, Time seconds) { co_await engine.Delay(seconds); }

/// Two pool legs and a delay leg joined, then one leg awaited on its own:
/// through Legs::Tag when `tag_alone`, bare otherwise.
sim::Task LegsScript(sim::Engine& engine, sim::FairSharePool& slow, sim::FairSharePool& fast,
                     bool tag_alone) {
  obs::Legs legs(engine, "test", obs::Track::Rank(0, 0, 3), obs::SpanRef{7});
  legs.Pool("slow.leg", obs::Category::kDram, slow, 1'000'000'000ull);
  legs.Pool("fast.leg", obs::Category::kNet, fast, 1'000'000'000ull);
  legs.Add("delay.leg", obs::Category::kQueue, 0.25, obs::kNoBytes, Sleep(engine, 0.25));
  co_await legs.Join();
  if (tag_alone) {
    co_await legs.Tag("alone", obs::Category::kPfs, 0.5, 42, Sleep(engine, 0.5));
  } else {
    co_await Sleep(engine, 0.5);
  }
}

struct LegsRun {
  Time end = 0;
  std::uint64_t events = 0;
};

/// Runs LegsScript on a fresh engine, observed by `recorder` when non-null.
LegsRun RunLegsScript(obs::Recorder* recorder, bool tag_alone) {
  if (recorder != nullptr) recorder->Install();
  LegsRun run;
  {
    sim::Engine engine;
    sim::FairSharePool slow(engine, {.name = "slow", .capacity = 1.0_GBps});
    sim::FairSharePool fast(engine, {.name = "fast", .capacity = 2.0_GBps});
    engine.Spawn(LegsScript(engine, slow, fast, tag_alone));
    engine.Run();
    run = {engine.Now(), engine.processed_events()};
  }
  if (recorder != nullptr) recorder->Uninstall();
  return run;
}

TEST(Legs, ObservedLegsFinishAtTheSameTimeWithTheSameEvents) {
  const LegsRun bare = RunLegsScript(nullptr, true);
  obs::Recorder recorder;
  const LegsRun traced = RunLegsScript(&recorder, true);
  EXPECT_NEAR(bare.end, 1.5, 1e-9);  // the slow leg's 1 s, then the lone leg
  EXPECT_EQ(traced.end, bare.end);
  EXPECT_EQ(traced.events, bare.events);
}

TEST(Legs, EachLegEmitsOneSpanWithItsTag) {
  obs::Recorder recorder;
  RunLegsScript(&recorder, true);
  struct Want {
    const char* name;
    obs::Category cat;
    Time start, end, ideal;
    Bytes bytes;
  };
  const Want wants[] = {
      {"slow.leg", obs::Category::kDram, 0.0, 1.0, 1.0, 1'000'000'000ull},
      {"fast.leg", obs::Category::kNet, 0.0, 0.5, 0.5, 1'000'000'000ull},
      {"delay.leg", obs::Category::kQueue, 0.0, 0.25, 0.25, obs::kNoBytes},
      {"alone", obs::Category::kPfs, 1.0, 1.5, 0.5, 42},
  };
  ASSERT_EQ(recorder.span_count(), std::size(wants));
  for (const Want& want : wants) {
    SCOPED_TRACE(want.name);
    int found = 0;
    for (const obs::Recorder::SpanEvent& span : Spans(recorder)) {
      if (std::string_view(recorder.name(span)) != want.name) continue;
      ++found;
      EXPECT_STREQ(recorder.category(span), "test");
      EXPECT_EQ(recorder.track(span), obs::Track::Rank(0, 0, 3));
      EXPECT_EQ(span.cat, want.cat);
      EXPECT_EQ(span.parent, obs::SpanRef{7});
      EXPECT_NEAR(span.ideal, want.ideal, 1e-12);
      EXPECT_NEAR(span.start, want.start, 1e-9);
      EXPECT_NEAR(span.end, want.end, 1e-9);
      EXPECT_EQ(span.bytes, want.bytes);
    }
    EXPECT_EQ(found, 1);
  }
}

TEST(Legs, TaggedLoneLegAddsNoEngineEvent) {
  obs::Recorder tagged_recorder;
  obs::Recorder bare_recorder;
  const LegsRun tagged = RunLegsScript(&tagged_recorder, true);
  const LegsRun bare = RunLegsScript(&bare_recorder, false);
  EXPECT_EQ(tagged.events, bare.events);
  EXPECT_EQ(tagged.end, bare.end);
  EXPECT_EQ(tagged_recorder.span_count(), bare_recorder.span_count() + 1);
}

// --- Sampler cadence and self-termination. ---

TEST(Sampler, SamplesAtIntervalAndStopsWithTheQueue) {
  sim::Engine engine;
  obs::Recorder recorder;
  recorder.Install();
  obs::Sampler sampler(engine, recorder, 1.0);
  int calls = 0;
  sampler.AddSource([&] {
    ++calls;
    obs::SetGauge("test.gauge", static_cast<double>(calls));
  });
  engine.Spawn([](sim::Engine& eng) -> sim::Task { co_await eng.Delay(5.5); }(engine));
  sampler.Kick();
  engine.Run();  // must terminate: the sampler stops re-arming once idle
  recorder.Uninstall();
  EXPECT_GE(calls, 5);
  EXPECT_EQ(recorder.sample_count(), static_cast<std::size_t>(calls));
  EXPECT_NE(recorder.SeriesCsv().find("test.gauge"), std::string::npos);
}

// --- End to end: a small UniviStor run with tracing + metrics on. ---

TEST(ObsEndToEnd, TraceAndMetricsFromMicroWorkload) {
  obs::Recorder recorder;
  recorder.Install();

  univistor::UniviStor::FlushStats flush_stats;
  {
    workload::ScenarioOptions options;
    options.procs = 32;
    workload::Scenario scenario(options);
    univistor::UniviStor system(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                                univistor::Config{});
    univistor::UniviStorDriver driver(system);

    obs::Sampler sampler(scenario.engine(), recorder, 0.25);
    hw::RegisterClusterGauges(sampler, scenario.cluster());
    system.RegisterGauges(sampler);
    sampler.Kick();

    auto app = scenario.runtime().LaunchProgram("app", 32);
    workload::RunHdfMicro(scenario, app, driver,
                          workload::MicroParams{.bytes_per_proc = 8_MiB,
                                                .file_name = "obs.h5"});
    flush_stats = system.flush_stats();
  }
  recorder.Uninstall();

  ASSERT_GT(recorder.span_count(), 0u);
  ASSERT_GT(recorder.sample_count(), 0u);

  const std::string trace = recorder.ChromeTraceJson();
  EXPECT_TRUE(JsonChecker::Valid(trace));
  // Spans from every instrumented subsystem.
  for (const char* cat : {"\"cat\":\"vmpi\"", "\"cat\":\"meta\"", "\"cat\":\"storage\"",
                          "\"cat\":\"hw\"", "\"cat\":\"univistor\""}) {
    EXPECT_NE(trace.find(cat), std::string::npos) << cat;
  }
  for (const char* name : {"\"name\":\"open\"", "\"name\":\"write\"", "\"name\":\"close\"",
                           "\"name\":\"rpc.service\"", "\"name\":\"pfs.write\"",
                           "\"name\":\"ost.access\"", "\"name\":\"flush\""}) {
    EXPECT_NE(trace.find(name), std::string::npos) << name;
  }
  // Track metadata is emitted for the lanes the spans use.
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  // Sampled counters ride along as "C" events.
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);

  const std::string metrics = recorder.MetricsJson(1.0);
  EXPECT_TRUE(JsonChecker::Valid(metrics));
  const auto& counters = recorder.metrics().counters();
  ASSERT_TRUE(counters.contains("flush.count"));
  ASSERT_TRUE(counters.contains("flush.bytes"));
  // The metrics mirror of FlushStats must agree with the system's summary.
  EXPECT_EQ(counters.at("flush.count").value(),
            static_cast<std::uint64_t>(flush_stats.flushes));
  EXPECT_EQ(counters.at("flush.bytes").value(), flush_stats.bytes_flushed);
  EXPECT_GT(flush_stats.flushes, 0) << "the micro workload flushes at close";
  for (const char* counter : {"vmpi.write.calls", "vmpi.write.bytes", "meta.insert.records",
                              "meta.rpc.calls", "placement.dram.bytes", "placement.appends",
                              "storage.pfs.write.bytes", "hw.ost.bytes"}) {
    EXPECT_TRUE(counters.contains(counter)) << counter;
  }
  // vmpi byte counters account for every client write.
  EXPECT_EQ(counters.at("vmpi.write.bytes").value(), 32u * 8_MiB);
  // Gauges registered by the cluster/system probes were sampled.
  const auto& gauges = recorder.metrics().gauges();
  EXPECT_TRUE(gauges.contains("hw.ost.utilization"));
  EXPECT_TRUE(gauges.contains("storage.dram.used_bytes"));

  const std::string csv = recorder.SeriesCsv();
  EXPECT_EQ(csv.rfind("t,metric,value\n", 0), 0u);
  EXPECT_NE(csv.find("storage.dram.used_bytes"), std::string::npos);
}

}  // namespace
}  // namespace uvs
