// Tracing and metrics recorder, bound per thread.
//
// A Recorder collects three coordinated surfaces from one simulation run:
//   * spans — scoped begin/end intervals (rank I/O calls, metadata RPC
//     service, flush passes, per-OST transfers) exported as Chrome
//     trace-event JSON, loadable in chrome://tracing and Perfetto. A
//     metadata RPC's four spans are stored as one record and expanded
//     back into spans for every reader (AddMetadataRpc, ForEachSpan);
//   * metrics — a registry of named counters/gauges/distributions;
//   * a time series — periodic snapshots of every counter and gauge taken
//     by an obs::Sampler, exported as JSON and CSV (and as Chrome "C"
//     counter events inside the trace).
//
// Spans optionally carry *attribution tags* (attribution.hpp): a wait-state
// category, a causal parent (the span whose work caused this one), and the
// solo/uncontended duration of the underlying transfer. Tagged spans let
// the analysis pass decompose each rank's wall time into categories and
// reconstruct the dependency DAG of a run.
//
// Instrumented code guards every call on `Recorder::Current()`: when no
// recorder is installed (the default) instrumentation is a single inlined
// null-pointer test — no heap traffic, no string work, no virtual calls.
// Recording only *observes* the simulation (it never schedules events,
// touches the RNG, or charges devices), so simulated results are
// bit-identical with tracing on and off.
//
// Lifetime: the installed recorder must outlive the sim::Engine whose
// processes it observes (construct it before the Scenario).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/units.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/engine.hpp"

namespace uvs::obs {

/// Sentinel for spans that carry no byte payload.
constexpr Bytes kNoBytes = static_cast<Bytes>(-1);

/// Wait-state attribution category of a span (attribution.hpp). Leaf spans
/// tagged with a category participate in the per-rank time decomposition;
/// kNone spans are umbrellas (whole MPI-IO ops, flush passes) used for rank
/// windows and causal structure only.
enum class Category : std::uint8_t {
  kNone = 0,
  kCompute,   // uncovered rank time (synthesised by the analysis pass)
  kQueue,     // fair-share queuing, locks, barriers, broadcasts
  kDram,      // DRAM / node-local SSD transfer
  kBb,        // burst-buffer transfer
  kPfs,       // PFS (OST) transfer
  kMeta,      // metadata RPC service
  kNet,       // network serialization: NIC, round trips, shuffles, copies
  kDegraded,  // transfer time inside a fault-degraded device window
};
constexpr int kCategoryCount = 9;
const char* CategoryName(Category cat);

/// Identity of a recorded span; 0 means "anonymous" (never assigned).
struct SpanRef {
  std::uint32_t id = 0;
  explicit operator bool() const { return id != 0; }
  friend bool operator==(const SpanRef&, const SpanRef&) = default;
};

/// Causal dependency edge: `child`'s work was initiated by `parent`.
struct CausalLink {
  std::uint32_t parent = 0;
  std::uint32_t child = 0;
};

/// Optional attribution tag attached to a span at emission time.
struct SpanTag {
  Category cat = Category::kNone;
  SpanRef parent;     // causal parent span (0 = root)
  SpanRef self;       // pre-allocated identity so children can reference it
  double ideal = 0.0; // solo/uncontended seconds of the underlying transfer
};

/// One trace lane: a kind plus the fields it uses. Every lane belongs to a
/// process, a physical location: the simulator, compute node `node`, BB
/// node `node` or OST `node`. The recorder interns each distinct track into
/// a dense lane id and the trace writer names lanes from these fields, so
/// no field value can alias another lane.
struct Track {
  /// In the order a trace lists the lanes of one process.
  enum class Kind : std::uint8_t {
    kSimulator,   // the simulator-global lane
    kBbNode,      // BB node `node`
    kOst,         // OST `node`
    kMetaServer,  // metadata server `index` of server program `program` on node `node`
    kFlush,       // flush passes of file `index`, in the simulator process
    kPfsFile,     // PFS file handle `index` accessed from compute node `node`
    kClusterJob,  // pending/run spans of cluster job `index`, in the simulator process
    kRank,        // rank `index` of program `program` on compute node `node`
  };

  Kind kind = Kind::kSimulator;
  std::int32_t node = 0;
  std::int32_t program = 0;
  std::int64_t index = 0;

  static Track Rank(int node, int program, int rank) {
    return {Kind::kRank, node, program, rank};
  }
  /// Metadata server `server_idx` of the server program `program`, so two
  /// tenants' servers never share a lane.
  static Track MetaServer(int node, int program, int server_idx) {
    return {Kind::kMetaServer, node, program, server_idx};
  }
  static Track Flush(std::uint64_t fid) {
    return {Kind::kFlush, 0, 0, static_cast<std::int64_t>(fid)};
  }
  static Track PfsIo(int node, int file_handle) {
    return {Kind::kPfsFile, node, 0, file_handle};
  }
  /// Lifecycle lane of one multi-tenant cluster job (pending/run spans).
  static Track ClusterJob(int job_id) { return {Kind::kClusterJob, 0, 0, job_id}; }
  static Track BbNode(int bb_node) { return {Kind::kBbNode, bb_node}; }
  static Track Ost(int ost) { return {Kind::kOst, ost}; }

  /// The Chrome process label ("node 3", "bb 0", "ost 9", "simulator").
  std::string PidName() const;
  /// The Chrome thread label ("rank 42 (prog 1)", "md server 7", "device").
  std::string TidName() const;

  friend bool operator==(const Track&, const Track&) = default;
};

class Recorder {
 public:
  /// Default cap on recorded spans (docs/OBSERVABILITY.md, "Span memory
  /// bound"): 4 Mi spans, at most 48 bytes each ≈ 192 MiB. Beyond it spans
  /// are counted in `spans_dropped()` instead of growing without limit.
  static constexpr std::size_t kDefaultSpanLimit = 4u << 20;

  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder();

  /// The recorder instrumentation on *this thread* publishes into;
  /// nullptr (the default) disables all recording. The binding is
  /// thread-local: a sim::ParallelFor worker thread running a private
  /// engine observes nothing unless it installs its own recorder, so
  /// concurrent runs can never interleave spans or metrics.
  static Recorder* Current() { return current_; }

  /// Binds this recorder to the calling thread. At most one per thread.
  void Install();
  /// Detaches this recorder (no-op if it is not the one installed on the
  /// calling thread).
  void Uninstall();
  /// True when this recorder is the calling thread's binding.
  bool installed() const { return current_ == this; }

  // --- span tracing ------------------------------------------------------
  /// One recorded span, as every reader sees it. The (category, name)
  /// literal pair is interned into `kind` (read back through category() /
  /// name()), the track into `lane` (read back through track()), and the
  /// attribution tag is stored flat, so a span costs 48 bytes.
  struct SpanEvent {
    Time start;
    Time end;
    Bytes bytes;
    double ideal;  // SpanTag::ideal
    std::uint32_t lane;
    SpanRef self;
    SpanRef parent;
    std::uint16_t kind;
    Category cat;
  };
  static_assert(sizeof(SpanEvent) <= 48);
  static_assert(std::is_trivially_copyable_v<SpanEvent> &&
                std::is_trivially_destructible_v<SpanEvent>);

  /// The recorded slots, in emission order, stored in fixed-size blocks:
  /// growth adds a block and never copies, and a block's untouched tail
  /// stays non-resident. A slot holds one span or one metadata-RPC record.
  class SpanLog {
   public:
    static constexpr std::size_t kBlockShift = 15;  // 32 Ki slots per block
    static constexpr std::size_t kBlockSpans = std::size_t{1} << kBlockShift;

    std::size_t size() const { return size_; }
    const SpanEvent& operator[](std::size_t i) const {
      return blocks_[i >> kBlockShift][i & (kBlockSpans - 1)];
    }

   private:
    friend class Recorder;
    struct FreeBlock {
      void operator()(SpanEvent* block) const {
        std::allocator<SpanEvent>().deallocate(block, kBlockSpans);
      }
    };
    using Block = std::unique_ptr<SpanEvent[], FreeBlock>;

    SpanEvent& at(std::size_t i) { return blocks_[i >> kBlockShift][i & (kBlockSpans - 1)]; }
    void push_back(const SpanEvent& span) {
      if (size_ == blocks_.size() * kBlockSpans)
        blocks_.emplace_back(std::allocator<SpanEvent>().allocate(kBlockSpans));
      std::construct_at(&at(size_), span);
      ++size_;
    }
    /// Keeps the first `kept` slots; releases the blocks left empty.
    void Truncate(std::size_t kept);

    std::vector<Block> blocks_;
    std::size_t size_ = 0;
  };

  /// Identity of one recorded span: its slot shifted left by two, plus its
  /// part for a metadata-RPC record (0 for any other span). Ids order as the
  /// spans were emitted; an eviction renumbers them.
  using SpanId = std::uint32_t;
  /// Slots a SpanId can name, less one so that no id is SpanId(-1).
  static constexpr std::size_t kMaxSlots = (std::size_t{1} << 30) - 1;

  SpanRef AddSpan(const char* category, const char* name, Track track, Time start, Time end,
                  Bytes bytes = kNoBytes) {
    return AddSpanTagged(category, name, track, start, end, bytes, SpanTag{});
  }
  SpanRef AddSpanTagged(const char* category, const char* name, Track track, Time start,
                        Time end, Bytes bytes, SpanTag tag) {
    if (FlightRecorder* fr = FlightRecorder::Current()) fr->Note(end, "span", name, end - start);
    if (span_count_ >= span_limit_ && !MakeRoom()) {
      ++spans_dropped_;
      return SpanRef{};
    }
    spans_.push_back(SpanEvent{start, end, bytes, tag.ideal, LaneOf(track), tag.self,
                               tag.parent, KindOf(category, name), tag.cat});
    ++span_count_;
    return tag.self;
  }

  // --- metadata RPCs ----------------------------------------------------
  /// The spans of one metadata RPC, as bits of AddMetadataRpc's `parts`, in
  /// the order they are emitted. All four are category "meta", untagged
  /// but for `parent` and their attribution category.
  static constexpr std::uint8_t kRpcService = 1;      // `rpc.service`: server lane, service
  static constexpr std::uint8_t kRpcRoundtrip = 2;    // `md.roundtrip`: rank lane, net
  static constexpr std::uint8_t kRpcQueue = 4;        // `md.queue`: rank lane, queued
  static constexpr std::uint8_t kRpcRankService = 8;  // `md.service`: rank lane, meta

  /// The instants of one metadata RPC.
  struct RpcTimes {
    Time start;     // the rank issued it
    Time queued;    // it reached the server's service queue
    Time serviced;  // its service began
    Time end;       // its service ended
  };

  /// Records the `parts` of one metadata RPC in a single slot of the span
  /// log: its instants, `rank`'s and `server`'s lanes and its causal
  /// parent. Every reader sees exactly the spans that AddSpanTagged calls
  /// for those parts, in part order, would have left: the flight recorder
  /// notes each part, the cap counts, drops and prunes each part on its
  /// own, and ForEachSpan hands out each part as a span.
  void AddMetadataRpc(const Track& rank, const Track& server, SpanRef parent, RpcTimes times,
                      std::uint8_t parts);

  // --- reading spans ------------------------------------------------------
  /// Calls fn(id, span) for every recorded span in emission order,
  /// expanding each metadata-RPC record into its parts.
  template <class Fn>
  void ForEachSpan(Fn&& fn) const {
    for (std::size_t slot = 0; slot < spans_.size(); ++slot) {
      const SpanEvent& span = spans_[slot];
      const auto id = static_cast<SpanId>(slot << 2);
      if (span.kind != kRpcKind) {
        fn(id, span);
        continue;
      }
      const RpcRecord rpc = std::bit_cast<RpcRecord>(span);
      for (unsigned part = 0; part < std::size(kRpcParts); ++part)
        if ((rpc.parts >> part & 1) != 0) fn(id | part, RpcSpan(rpc, part));
    }
  }
  /// The span `id` names, for an id ForEachSpan handed out since the last
  /// eviction.
  SpanEvent span(SpanId id) const {
    const SpanEvent& slot = spans_[id >> 2];
    return slot.kind == kRpcKind ? RpcSpan(std::bit_cast<RpcRecord>(slot), id & 3) : slot;
  }

  /// Allocates a fresh span identity (for spans whose children need a
  /// causal parent before the span itself is emitted).
  SpanRef NewSpanRef() { return SpanRef{++last_span_id_}; }

  /// Records a causal edge between two identified spans; edges with an
  /// anonymous endpoint are dropped.
  void AddLink(SpanRef parent, SpanRef child) {
    if (parent && child) links_.push_back(CausalLink{parent.id, child.id});
  }

  /// Spans recorded and not evicted: a metadata-RPC record counts once
  /// per part it holds.
  std::size_t span_count() const { return span_count_; }
  const std::vector<CausalLink>& links() const { return links_; }
  /// The category and name literals a span was emitted with.
  const char* category(const SpanEvent& span) const { return kinds_[span.kind].category; }
  const char* name(const SpanEvent& span) const { return kinds_[span.kind].name; }
  /// The track a span was emitted on.
  const Track& track(const SpanEvent& span) const { return lanes_[span.lane]; }
  /// Every interned track, indexed by lane id. A lane stays after the prune
  /// hook evicts its last span.
  const std::vector<Track>& lanes() const { return lanes_; }

  /// Caps the recorded spans (span_count(), not slots); further spans are
  /// dropped and counted (or handed to the prune hook first, when one is
  /// set). Span ids name at most kMaxSlots slots, so no cap is larger.
  void SetSpanLimit(std::size_t limit) { span_limit_ = std::min(limit, kMaxSlots); }
  std::size_t span_limit() const { return span_limit_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }

  // --- tail-based retention ---------------------------------------------
  /// Called when the span cap is hit, before any span is dropped: the hook
  /// evicts spans it no longer needs (via EraseSpansIf) and returns how
  /// many it freed. Owners decide *which* spans matter — e.g.
  /// cluster::ClusterSim keeps the worst stretch decile and SLO violators
  /// and evicts completed, unremarkable jobs. The hook must only observe
  /// the simulation. Pass nullptr to clear.
  using PruneHook = std::function<std::size_t(Recorder&)>;
  void SetPruneHook(PruneHook hook) { prune_hook_ = std::move(hook); }
  /// Removes every span matching `drop`, keeping the survivors' order;
  /// returns and counts the evictions. Each part of a metadata-RPC record
  /// is judged on its own.
  std::size_t EraseSpansIf(const std::function<bool(const SpanEvent&)>& drop);
  /// Spans evicted by the prune hook (distinct from spans_dropped(): a
  /// pruned span was recorded and then deliberately retired).
  std::uint64_t spans_pruned() const { return spans_pruned_; }

  // --- metrics -----------------------------------------------------------
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // --- time series -------------------------------------------------------
  /// Appends the current value of every counter and gauge at time `now`
  /// (called by obs::Sampler every sampling interval).
  void Sample(Time now);
  std::size_t sample_count() const { return samples_taken_; }

  // --- export ------------------------------------------------------------
  /// Chrome trace-event JSON (spans + track names + sampled counters).
  void WriteChromeTrace(std::ostream& os) const;
  std::string ChromeTraceJson() const;
  /// Machine-readable run report (schema univistor.metrics.v3): counters,
  /// gauges, distributions, series. The embed parameters, when non-empty,
  /// must each be a complete JSON object placed under the corresponding
  /// key: `attribution_json` (obs::AttributionJson), `telemetry_json`
  /// (per-tenant sketch rollup) and `slo_json` (SLO verdict block).
  std::string MetricsJson(Time sim_elapsed, const std::string& attribution_json = "",
                          const std::string& telemetry_json = "",
                          const std::string& slo_json = "") const;
  /// The sampled time series as "t,metric,value" CSV.
  std::string SeriesCsv() const;

  Status WriteChromeTrace(const std::string& path) const;
  Status WriteMetricsJson(const std::string& path, Time sim_elapsed,
                          const std::string& attribution_json = "",
                          const std::string& telemetry_json = "",
                          const std::string& slo_json = "") const;
  Status WriteSeriesCsv(const std::string& path) const;

 private:
  struct SeriesPoint {
    Time t;
    const std::string* name;  // points into the registry's stable keys
    double value;
  };

  struct Kind {
    const char* category = nullptr;
    const char* name = nullptr;
    std::uint16_t id = 0;
  };

  /// A metadata RPC as stored (AddMetadataRpc): one slot of the span log,
  /// told from a span by its `kind`, which no interned kind reaches.
  struct RpcRecord {
    RpcTimes times;
    std::uint32_t rank_lane;
    std::uint32_t server_lane;
    SpanRef parent;
    std::uint16_t kind;  // kRpcKind
    std::uint8_t parts;  // the parts still recorded, as kRpc* bits
  };
  static_assert(sizeof(RpcRecord) == sizeof(SpanEvent) &&
                offsetof(RpcRecord, kind) == offsetof(SpanEvent, kind));
  static constexpr std::uint16_t kRpcKind = UINT16_MAX;

  /// Per part of a metadata RPC, in part order: its name, the instants it
  /// spans, whether it is on the server's lane, and its category.
  struct RpcPart {
    const char* name;
    Time RpcTimes::*from;
    Time RpcTimes::*to;
    bool on_server;
    Category cat;
  };
  static constexpr RpcPart kRpcParts[] = {
      {"rpc.service", &RpcTimes::serviced, &RpcTimes::end, true, Category::kNone},
      {"md.roundtrip", &RpcTimes::start, &RpcTimes::queued, false, Category::kNet},
      {"md.queue", &RpcTimes::queued, &RpcTimes::serviced, false, Category::kQueue},
      {"md.service", &RpcTimes::serviced, &RpcTimes::end, false, Category::kMeta},
  };

  /// Part `part` of a stored metadata RPC, as a span.
  SpanEvent RpcSpan(const RpcRecord& rpc, unsigned part) const {
    const RpcPart& p = kRpcParts[part];
    return SpanEvent{rpc.times.*p.from, rpc.times.*p.to, kNoBytes, 0.0,
                     p.on_server ? rpc.server_lane : rpc.rank_lane, SpanRef{}, rpc.parent,
                     rpc_kinds_[part], p.cat};
  }

  /// Runs the prune hook (re-entrancy guarded); true when room was freed.
  bool MakeRoom();

  /// Interned kind of a (category, name) literal pair. Spans come from a
  /// few dozen call sites, so a direct-mapped cache answers almost every
  /// lookup; misses scan `kinds_`.
  std::uint16_t KindOf(const char* category, const char* name) {
    const std::uint64_t key = reinterpret_cast<std::uintptr_t>(name) ^
                              (std::uint64_t{reinterpret_cast<std::uintptr_t>(category)} << 1);
    Kind& slot = kind_cache_[(key * 0x9e3779b97f4a7c15ull) >> 56];
    if (slot.name != name || slot.category != category) slot = InternKind(category, name);
    return slot.id;
  }
  Kind InternKind(const char* category, const char* name);

  /// Lane id of a track, interning it on first use: an open-addressing
  /// table over `lanes_`, which a run fills with thousands of tracks, not
  /// millions.
  std::uint32_t LaneOf(const Track& track);

  static inline thread_local Recorder* current_ = nullptr;

  SpanLog spans_;
  std::size_t span_count_ = 0;
  std::vector<Kind> kinds_;
  std::array<std::uint16_t, std::size(kRpcParts)> rpc_kinds_{};  // interned at construction
  std::array<Kind, 256> kind_cache_{};
  std::vector<Track> lanes_;               // lane id -> track
  std::vector<std::uint32_t> lane_slots_;  // lane id + 1; 0 = empty
  std::vector<CausalLink> links_;
  std::size_t span_limit_ = kDefaultSpanLimit;
  std::uint64_t spans_dropped_ = 0;
  std::uint64_t spans_pruned_ = 0;
  std::uint32_t last_span_id_ = 0;
  PruneHook prune_hook_;
  bool pruning_ = false;
  MetricsRegistry metrics_;
  std::vector<SeriesPoint> series_;
  std::size_t samples_taken_ = 0;
};

/// True when a recorder is installed; the one guard hot paths pay.
inline bool Enabled() { return Recorder::Current() != nullptr; }

/// Fresh span identity, or an anonymous ref when recording is off.
inline SpanRef NewSpanRef() {
  Recorder* r = Recorder::Current();
  return r != nullptr ? r->NewSpanRef() : SpanRef{};
}

// Convenience helpers; all no-ops (one pointer test) when disabled.
inline void Count(const char* name, std::uint64_t delta = 1) {
  if (Recorder* r = Recorder::Current()) r->metrics().GetCounter(name).Add(delta);
}
inline void SetGauge(const char* name, double value) {
  if (Recorder* r = Recorder::Current()) r->metrics().GetGauge(name).Set(value);
}
inline void Observe(const char* name, double x) {
  if (Recorder* r = Recorder::Current()) r->metrics().GetDistribution(name).Observe(x);
}

/// RAII span: captures the sim time at construction and emits a complete
/// span at destruction. Safe to hold across co_await — the span then
/// covers the coroutine section's full simulated duration. A default-
/// constructed or disabled timer does nothing.
class SpanTimer {
 public:
  SpanTimer() = default;
  SpanTimer(sim::Engine& engine, const char* category, const char* name, Track track,
            Bytes bytes = kNoBytes, SpanTag tag = {})
      : recorder_(Recorder::Current()) {
    if (recorder_ != nullptr) {
      engine_ = &engine;
      category_ = category;
      name_ = name;
      track_ = track;
      bytes_ = bytes;
      tag_ = tag;
      start_ = engine.Now();
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() {
    // The Current() check drops spans that close after their recorder was
    // uninstalled (e.g. coroutine frames torn down with the engine after a
    // bench hook exported its files).
    if (recorder_ != nullptr && recorder_ == Recorder::Current())
      recorder_->AddSpanTagged(category_, name_, track_, start_, engine_->Now(), bytes_, tag_);
  }

  /// Identity children can link against (0 unless the tag carried one).
  SpanRef ref() const { return tag_.self; }

 private:
  Recorder* recorder_ = nullptr;
  sim::Engine* engine_ = nullptr;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  Track track_;
  Bytes bytes_ = kNoBytes;
  SpanTag tag_;
  Time start_ = 0;
};

/// The record of one metadata RPC (Recorder::AddMetadataRpc), held in the
/// serving coroutine from the start of service across the co_await that
/// serves it. Complete() records the whole RPC when service ends; a frame
/// destroyed before that (Engine::Abandon) records only the server's
/// `rpc.service` span, up to the moment of destruction, as a SpanTimer
/// over the service section would.
class MetadataRpcTimer {
 public:
  MetadataRpcTimer(sim::Engine& engine, Track server, SpanRef parent)
      : recorder_(Recorder::Current()),
        engine_(&engine),
        server_(server),
        serviced_(engine.Now()),
        parent_(parent) {}
  MetadataRpcTimer(const MetadataRpcTimer&) = delete;
  MetadataRpcTimer& operator=(const MetadataRpcTimer&) = delete;
  ~MetadataRpcTimer() {
    if (recorder_ != nullptr && recorder_ == Recorder::Current())
      recorder_->AddMetadataRpc(server_, server_, parent_,
                                {serviced_, serviced_, serviced_, engine_->Now()},
                                Recorder::kRpcService);
  }

  /// When service began.
  Time serviced() const { return serviced_; }

  /// Service ends now: records the RPC that `rank` issued at `start` and
  /// that reached the server's queue at `queued`. It has an `md.queue`
  /// span only if it waited; the server's `rpc.service` goes only to the
  /// recorder installed when service began, as a SpanTimer's would.
  void Complete(const Track& rank, Time start, Time queued) {
    if (Recorder* r = Recorder::Current()) {
      std::uint8_t parts = Recorder::kRpcRoundtrip | Recorder::kRpcRankService;
      if (serviced_ > queued) parts |= Recorder::kRpcQueue;
      if (r == recorder_) parts |= Recorder::kRpcService;
      r->AddMetadataRpc(rank, server_, parent_, {start, queued, serviced_, engine_->Now()},
                        parts);
    }
    recorder_ = nullptr;
  }

 private:
  Recorder* recorder_;
  sim::Engine* engine_;
  Track server_;
  Time serviced_;
  SpanRef parent_;
};

}  // namespace uvs::obs
