#include "src/storage/pfs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/log.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/combinators.hpp"

namespace uvs::storage {

namespace {
/// Max concurrent device streams one access fans out to.
constexpr std::uint64_t kMaxStreamsPerAccess = 16;
/// Extent-lock inflation multiplier for partial-stripe RMW writes on
/// erasure-coded files: the read-modify-write cycle holds the stripe's
/// lock across two device round trips instead of one.
constexpr double kRmwLockPenalty = 1.75;
}  // namespace

Pfs::Pfs(hw::Cluster& cluster) : cluster_(&cluster) {
  ost_failed_.assign(static_cast<std::size_t>(cluster_->pfs().size()), false);
}

Pfs::FileHandle Pfs::Create(std::string name, StripeConfig stripe) {
  const int osts = cluster_->pfs().size();
  stripe.stripe_count = std::clamp(stripe.stripe_count, 1, osts);
  if (stripe.ost_offset < 0)
    stripe.ost_offset = static_cast<int>(cluster_->rng().NextBelow(static_cast<std::uint64_t>(osts)));
  auto info = std::make_unique<FileInfo>();
  info->name = std::move(name);
  if (stripe.parity_shards > 0) {
    info->ec_layout =
        placement::PlanEcLayout(stripe.stripe_count, stripe.parity_shards, osts, stripe.ost_offset);
    stripe.stripe_count = info->ec_layout.data_shards;
    stripe.parity_shards = info->ec_layout.parity_shards;  // 0 on a 1-OST cluster
    if (stripe.parity_shards > 0)
      info->rmw_mutex = std::make_unique<sim::Mutex>(cluster_->engine());
  }
  info->stripe = stripe;
  files_.push_back(std::move(info));
  return static_cast<FileHandle>(files_.size() - 1);
}

Result<Pfs::FileHandle> Pfs::Lookup(const std::string& name) const {
  for (std::size_t i = 0; i < files_.size(); ++i)
    if (files_[i]->name == name) return static_cast<FileHandle>(i);
  return NotFoundError("no PFS file named " + name);
}

Bytes Pfs::FileSize(FileHandle file) const {
  return files_.at(static_cast<std::size_t>(file))->size;
}

const StripeConfig& Pfs::Stripe(FileHandle file) const {
  return files_.at(static_cast<std::size_t>(file))->stripe;
}

int Pfs::ost_count() const { return cluster_->pfs().size(); }

int Pfs::ActiveWriters(FileHandle file) const {
  return files_.at(static_cast<std::size_t>(file))->active_writers;
}

int Pfs::WriteCalls(FileHandle file) const {
  return files_.at(static_cast<std::size_t>(file))->write_calls;
}

int Pfs::PeakWriters(FileHandle file) const {
  return files_.at(static_cast<std::size_t>(file))->peak_writers;
}

double Pfs::LockInflation(AccessLayout layout, int writers, bool read) const {
  if (layout == AccessLayout::kFilePerProcess || writers <= 1) return 1.0;
  double penalty = cluster_->params().pfs.shared_file_lock_penalty;
  if (layout == AccessLayout::kAlignedRanges) penalty *= 0.15;
  if (read) penalty *= 0.5;  // read locks conflict less than write locks
  return 1.0 + penalty * std::log2(static_cast<double>(writers));
}

Pfs::StreamPlan Pfs::PlanStreams(const FileInfo& info, Bytes offset, Bytes len,
                                 const AccessOptions& options) {
  const int osts = cluster_->pfs().size();
  // Target set: explicit list, or the stripe layout's OSTs.
  std::vector<int> targets = options.target_osts;
  if (targets.empty()) {
    targets.reserve(static_cast<std::size_t>(info.stripe.stripe_count));
    for (int k = 0; k < info.stripe.stripe_count; ++k)
      targets.push_back((info.stripe.ost_offset + k) % osts);
  }

  // How many distinct stripe pieces does this range cover?
  const Bytes stripe_size = std::max<Bytes>(1, info.stripe.stripe_size);
  const auto pieces = static_cast<std::uint64_t>((offset + len + stripe_size - 1) / stripe_size -
                                                 offset / stripe_size);
  const std::uint64_t streams =
      std::min<std::uint64_t>({pieces, targets.size(), kMaxStreamsPerAccess});

  StreamPlan plan;
  plan.sync_targets = static_cast<int>(std::min<std::uint64_t>(pieces, targets.size()));
  plan.streams.reserve(streams);
  const Bytes base = len / streams;
  Bytes leftover = len - base * streams;
  const std::uint64_t first_piece = offset / stripe_size;
  for (std::uint64_t s = 0; s < streams; ++s) {
    Bytes piece_bytes = base + (s < leftover ? 1 : 0);
    int ost;
    if (options.coordinated) {
      // Follow the layout: consecutive pieces round-robin the target set.
      ost = targets[static_cast<std::size_t>((first_piece + s) % targets.size())];
    } else {
      // Uncoordinated: requests land on a random member of the target set.
      ost = targets[static_cast<std::size_t>(
          cluster_->rng().NextBelow(static_cast<std::uint64_t>(targets.size())))];
    }
    // Merge streams that landed on the same OST.
    auto it = std::find_if(plan.streams.begin(), plan.streams.end(),
                           [ost](const auto& p) { return p.first == ost; });
    if (it != plan.streams.end()) {
      it->second += piece_bytes;
    } else {
      plan.streams.emplace_back(ost, piece_bytes);
    }
  }
  return plan;
}

sim::Task Pfs::Access(FileHandle file, Bytes offset, Bytes len, int node,
                      AccessOptions options, bool read) {
  if (files_.at(static_cast<std::size_t>(file))->stripe.parity_shards > 0)
    return EcAccess(file, offset, len, node, std::move(options), read);
  return PlainAccess(file, offset, len, node, std::move(options), read);
}

sim::Task Pfs::PlainAccess(FileHandle file, Bytes offset, Bytes len, int node,
                           AccessOptions options, bool read) {
  auto& info = *files_.at(static_cast<std::size_t>(file));
  auto& engine = cluster_->engine();
  if (len == 0) co_return;

  const obs::SpanRef self = obs::NewSpanRef();
  obs::SpanTimer span(engine, "storage", read ? "pfs.read" : "pfs.write",
                      obs::Track::PfsIo(node, file), len,
                      {.cat = obs::Category::kPfs, .parent = options.parent, .self = self});
  obs::Count(read ? "storage.pfs.read.calls" : "storage.pfs.write.calls");
  obs::Count(read ? "storage.pfs.read.bytes" : "storage.pfs.write.bytes", len);

  int& active = read ? info.active_readers : info.active_writers;
  ++active;
  if (!read) {
    ++info.write_calls;
    const int previous_peak = info.peak_writers;
    info.peak_writers = std::max(info.peak_writers, info.active_writers);
    // Overload: more concurrent writers than OSTs means every device is
    // oversubscribed and the extent-lock inflation grows without bound.
    // Warn once per file as the threshold is first crossed.
    if (info.active_writers > ost_count() && previous_peak <= ost_count()) {
      UVS_WARN("pfs: file '" << info.name << "' has " << info.active_writers
                             << " concurrent writers over " << ost_count()
                             << " OSTs (lock inflation "
                             << LockInflation(options.layout, info.active_writers, false)
                             << "x)");
    }
  }
  const double inflation = LockInflation(options.layout, active, read);

  const auto plan = PlanStreams(info, offset, len, options);

  // Stripe-count synchronization overhead: one OST association per distinct
  // stripe target (stream coalescing does not reduce the handshakes).
  co_await engine.Delay(cluster_->params().pfs.per_ost_sync_overhead *
                        static_cast<double>(plan.sync_targets));

  std::vector<sim::Task> legs;
  legs.reserve(plan.streams.size() + 1);
  auto& nic = read ? cluster_->node(node).nic_rx() : cluster_->node(node).nic_tx();
  legs.push_back(sim::Transfer(nic, len));
  for (const auto& [ost, bytes] : plan.streams)
    legs.push_back(cluster_->pfs().Access(ost, bytes, inflation, self));
  co_await sim::WhenAll(engine, std::move(legs));

  --active;
  if (!read) info.size = std::max(info.size, offset + len);
}

sim::Task Pfs::Write(FileHandle file, Bytes offset, Bytes len, int node, AccessOptions options) {
  return Access(file, offset, len, node, std::move(options), /*read=*/false);
}

sim::Task Pfs::Read(FileHandle file, Bytes offset, Bytes len, int node, AccessOptions options) {
  return Access(file, offset, len, node, std::move(options), /*read=*/true);
}

// --- Erasure coding ---------------------------------------------------------

bool Pfs::EcStripe::touched() const {
  for (auto v : version)
    if (v != 0) return true;
  for (auto v : pending)
    if (v != 0) return true;
  return false;
}

void Pfs::EcPhase::Add(int ost, Bytes b, std::vector<EcApplyOp> ops) {
  bytes += b;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (streams[i].first != ost) continue;
    streams[i].second += b;
    for (auto& op : ops) applies[i].push_back(std::move(op));
    return;
  }
  ++sync_targets;  // first contact with this OST in the phase
  streams.emplace_back(ost, b);
  applies.emplace_back(std::move(ops));
}

int Pfs::NoteStripeHealth(const FileInfo& info, const EcStripe& stripe) {
  int intact = 0;
  for (std::size_t sh = 0; sh < stripe.home.size(); ++sh)
    if (!ost_failed_[static_cast<std::size_t>(stripe.home[sh])] && !stripe.latent[sh]) ++intact;
  const int total = static_cast<int>(stripe.home.size());
  if (total - intact > info.stripe.parity_shards) ec_redundancy_exceeded_ = true;
  return intact;
}

void Pfs::CountLost(FileHandle file, const FileInfo& info, std::uint64_t stripe, int shard) {
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(file)) << 40) |
                            ((stripe & 0xFFFFFFFFull) << 8) |
                            static_cast<std::uint64_t>(static_cast<std::uint32_t>(shard) & 0xFF);
  if (!ec_lost_counted_.insert(key).second) return;
  ec_stats_.lost_bytes += info.stripe.stripe_size;
  obs::Count("storage.pfs.ec.lost_bytes", info.stripe.stripe_size);
}

Pfs::EcStripe& Pfs::MaterializeStripe(FileInfo& info, std::uint64_t stripe) {
  auto it = info.ec_stripes.find(stripe);
  if (it != info.ec_stripes.end()) return it->second;
  const auto k = static_cast<std::size_t>(info.ec_layout.data_shards);
  const auto m = static_cast<std::size_t>(info.ec_layout.parity_shards);
  EcStripe st;
  st.version.assign(k, 0);
  st.pending.assign(k, 0);
  st.parity.assign(m, std::vector<std::uint32_t>(k, 0));
  st.home.resize(k + m);
  st.latent.assign(k + m, false);
  for (std::size_t sh = 0; sh < k + m; ++sh)
    st.home[sh] = placement::EcShardOst(info.ec_layout, stripe, static_cast<int>(sh));
  if (failed_osts_ > 0) {
    // The MDS never allocates a fresh shard on a dead OST: walk to the next
    // healthy OST not already carrying a shard of this stripe.
    const int osts = static_cast<int>(ost_failed_.size());
    for (std::size_t sh = 0; sh < k + m; ++sh) {
      if (!ost_failed_[static_cast<std::size_t>(st.home[sh])]) continue;
      for (int step = 1; step <= osts; ++step) {
        const int cand = (st.home[sh] + step) % osts;
        if (ost_failed_[static_cast<std::size_t>(cand)]) continue;
        if (std::find(st.home.begin(), st.home.end(), cand) != st.home.end()) continue;
        st.home[sh] = cand;
        break;
      }
    }
  }
  EcStripe& ref = info.ec_stripes.emplace(stripe, std::move(st)).first->second;
  NoteStripeHealth(info, ref);
  return ref;
}

Pfs::EcPlan Pfs::PlanEcWrite(FileHandle file, FileInfo& info, Bytes offset, Bytes len) {
  (void)file;
  EcPlan plan;
  const int k = info.ec_layout.data_shards;
  const int m = info.ec_layout.parity_shards;
  const Bytes shard_size = std::max<Bytes>(1, info.stripe.stripe_size);
  const Bytes span = shard_size * static_cast<Bytes>(k);
  const std::uint64_t s0 = offset / span;
  const std::uint64_t s1 = (offset + len - 1) / span;
  for (std::uint64_t s = s0; s <= s1; ++s) {
    EcStripe& st = MaterializeStripe(info, s);
    const Bytes stripe_lo = static_cast<Bytes>(s) * span;
    std::vector<Bytes> piece(static_cast<std::size_t>(k), 0);
    Bytes unit = 0;
    int updated = 0;
    for (int j = 0; j < k; ++j) {
      const Bytes lo = std::max(offset, stripe_lo + static_cast<Bytes>(j) * shard_size);
      const Bytes hi = std::min(offset + len, stripe_lo + static_cast<Bytes>(j + 1) * shard_size);
      if (hi <= lo) continue;
      piece[static_cast<std::size_t>(j)] = hi - lo;
      unit = std::max(unit, hi - lo);
      ++updated;
    }
    const bool covered = offset <= stripe_lo && stripe_lo + span <= offset + len;

    // Version intents: each updated data shard advances one step; parity
    // snapshots the full intended vector. Applied per-leg on completion.
    std::vector<std::uint32_t> target(static_cast<std::size_t>(k), 0);
    for (int j = 0; j < k; ++j)
      if (piece[static_cast<std::size_t>(j)] > 0)
        target[static_cast<std::size_t>(j)] = ++st.pending[static_cast<std::size_t>(j)];
    const std::vector<std::uint32_t> snapshot = st.pending;

    if (!covered) {
      // Partial stripe: read-modify-write. Read whichever is cheaper — the
      // updated shards' old data plus all parity, or the untouched data
      // shards — then recompute parity from k data pieces.
      plan.rmw = true;
      ++ec_stats_.rmw_stripes;
      std::vector<int> sources;
      if (updated + m <= k - updated) {
        for (int j = 0; j < k; ++j)
          if (piece[static_cast<std::size_t>(j)] > 0) sources.push_back(j);
        for (int p = 0; p < m; ++p) sources.push_back(k + p);
      } else {
        for (int j = 0; j < k; ++j)
          if (piece[static_cast<std::size_t>(j)] == 0) sources.push_back(j);
      }
      int substitutes = 0;
      for (int src : sources) {
        const Bytes b =
            (src < k && piece[static_cast<std::size_t>(src)] > 0)
                ? piece[static_cast<std::size_t>(src)]
                : unit;
        if (!ost_failed_[static_cast<std::size_t>(st.home[static_cast<std::size_t>(src)])])
          plan.read.Add(st.home[static_cast<std::size_t>(src)], b);
        else
          ++substitutes;
      }
      // Degraded RMW: dead sources are replaced by other surviving shards.
      for (int sh = 0; sh < k + m && substitutes > 0; ++sh) {
        if (ost_failed_[static_cast<std::size_t>(st.home[static_cast<std::size_t>(sh)])]) continue;
        if (std::find(sources.begin(), sources.end(), sh) != sources.end()) continue;
        plan.read.Add(st.home[static_cast<std::size_t>(sh)], unit);
        --substitutes;
      }
    }

    // Write legs: updated data pieces plus every parity shard (parity covers
    // the stripe's dirty extent). Each leg applies its own shard's version
    // on completion, so a crash between legs tears exactly that shard.
    std::vector<EcApplyOp> orphans;
    for (int j = 0; j < k; ++j) {
      const Bytes b = piece[static_cast<std::size_t>(j)];
      if (b == 0) continue;
      EcApplyOp op{&st, j, target[static_cast<std::size_t>(j)], {}};
      const int home = st.home[static_cast<std::size_t>(j)];
      if (!ost_failed_[static_cast<std::size_t>(home)]) {
        std::vector<EcApplyOp> ops;
        ops.push_back(std::move(op));
        plan.write.Add(home, b, std::move(ops));
      } else {
        orphans.push_back(std::move(op));
      }
    }
    for (int p = 0; p < m; ++p) {
      EcApplyOp op{&st, k + p, 0, snapshot};
      const int home = st.home[static_cast<std::size_t>(k + p)];
      if (!ost_failed_[static_cast<std::size_t>(home)]) {
        std::vector<EcApplyOp> ops;
        ops.push_back(std::move(op));
        plan.write.Add(home, unit, std::move(ops));
        ec_stats_.parity_bytes += unit;
      } else {
        orphans.push_back(std::move(op));
      }
    }
    // Shards whose home OST is dead still land logically (parity or the
    // survivors carry the data): their versions ride the last live leg.
    if (!orphans.empty() && !plan.write.streams.empty()) {
      auto& ops = plan.write.applies.back();
      for (auto& op : orphans) ops.push_back(std::move(op));
    }
  }
  return plan;
}

Pfs::EcPlan Pfs::PlanEcRead(FileHandle file, FileInfo& info, Bytes offset, Bytes len,
                            const AccessOptions& options) {
  EcPlan plan;
  const int k = info.ec_layout.data_shards;
  const int m = info.ec_layout.parity_shards;
  const Bytes shard_size = std::max<Bytes>(1, info.stripe.stripe_size);
  const Bytes span = shard_size * static_cast<Bytes>(k);
  const std::uint64_t s0 = offset / span;
  const std::uint64_t s1 = (offset + len - 1) / span;
  const int osts = static_cast<int>(ost_failed_.size());
  for (std::uint64_t s = s0; s <= s1; ++s) {
    const Bytes stripe_lo = static_cast<Bytes>(s) * span;
    std::vector<Bytes> piece(static_cast<std::size_t>(k), 0);
    Bytes unit = 0;
    Bytes requested = 0;
    for (int j = 0; j < k; ++j) {
      const Bytes lo = std::max(offset, stripe_lo + static_cast<Bytes>(j) * shard_size);
      const Bytes hi = std::min(offset + len, stripe_lo + static_cast<Bytes>(j + 1) * shard_size);
      if (hi <= lo) continue;
      piece[static_cast<std::size_t>(j)] = hi - lo;
      unit = std::max(unit, hi - lo);
      requested += hi - lo;
    }

    auto it = info.ec_stripes.find(s);
    if (it == info.ec_stripes.end()) {
      // Never written: nothing to lose; charge reads from the layout homes
      // (skipping dead OSTs for the next healthy one).
      for (int j = 0; j < k; ++j) {
        const Bytes b = piece[static_cast<std::size_t>(j)];
        if (b == 0) continue;
        int home = placement::EcShardOst(info.ec_layout, s, j);
        for (int step = 0; step < osts && ost_failed_[static_cast<std::size_t>(home)]; ++step)
          home = (home + 1) % osts;
        plan.read.Add(home, b);
      }
      continue;
    }
    EcStripe& st = it->second;
    bool dead_needed = false;
    for (int j = 0; j < k; ++j)
      if (piece[static_cast<std::size_t>(j)] > 0 &&
          ost_failed_[static_cast<std::size_t>(st.home[static_cast<std::size_t>(j)])])
        dead_needed = true;
    if (!dead_needed) {
      for (int j = 0; j < k; ++j)
        if (piece[static_cast<std::size_t>(j)] > 0)
          plan.read.Add(st.home[static_cast<std::size_t>(j)], piece[static_cast<std::size_t>(j)]);
      continue;
    }
    int alive = 0;
    for (int sh = 0; sh < k + m; ++sh)
      if (!ost_failed_[static_cast<std::size_t>(st.home[static_cast<std::size_t>(sh)])]) ++alive;
    if (alive >= k && options.degraded_reads) {
      // Degraded read: any k surviving shards reconstruct the stripe; the
      // traffic beyond the requested bytes is the reconstruction cost.
      ++ec_stats_.degraded_reads;
      obs::Count("storage.pfs.ec.degraded_reads");
      int picked = 0;
      for (int sh = 0; sh < k + m && picked < k; ++sh) {
        const int home = st.home[static_cast<std::size_t>(sh)];
        if (ost_failed_[static_cast<std::size_t>(home)]) continue;
        plan.read.Add(home, unit);
        ++picked;
      }
      const Bytes total = static_cast<Bytes>(k) * unit;
      const Bytes extra = total > requested ? total - requested : 0;
      ec_stats_.degraded_read_bytes += extra;
      obs::Count("storage.pfs.ec.degraded_read_bytes", extra);
    } else {
      // Fewer than k shards survive (or reconstruction disabled): serve what
      // lives; written bytes on dead shards are lost only past redundancy.
      for (int j = 0; j < k; ++j) {
        const Bytes b = piece[static_cast<std::size_t>(j)];
        if (b == 0) continue;
        const int home = st.home[static_cast<std::size_t>(j)];
        if (!ost_failed_[static_cast<std::size_t>(home)]) {
          plan.read.Add(home, b);
          continue;
        }
        if (alive < k && (st.version[static_cast<std::size_t>(j)] > 0 ||
                          st.pending[static_cast<std::size_t>(j)] > 0))
          CountLost(file, info, s, j);
      }
    }
  }
  return plan;
}

void Pfs::ApplyEcOps(const std::vector<EcApplyOp>& ops) {
  for (const auto& op : ops) {
    EcStripe& st = *op.stripe;
    const int k = static_cast<int>(st.version.size());
    if (op.shard < k) {
      auto& v = st.version[static_cast<std::size_t>(op.shard)];
      v = std::max(v, op.target);
    } else {
      auto& snap = st.parity[static_cast<std::size_t>(op.shard - k)];
      for (std::size_t j = 0; j < snap.size(); ++j) snap[j] = std::max(snap[j], op.snapshot[j]);
    }
    st.latent[static_cast<std::size_t>(op.shard)] = false;  // a rewrite scrubs the content
  }
}

sim::Task Pfs::EcWriteLeg(int ost, Bytes bytes, double inflation, obs::SpanRef parent,
                          std::vector<EcApplyOp> ops) {
  co_await cluster_->pfs().Access(ost, bytes, inflation, parent);
  ApplyEcOps(ops);
}

sim::Task Pfs::EcAccess(FileHandle file, Bytes offset, Bytes len, int node,
                        AccessOptions options, bool read) {
  auto& info = *files_.at(static_cast<std::size_t>(file));
  auto& engine = cluster_->engine();
  if (len == 0) co_return;

  const obs::SpanRef self = obs::NewSpanRef();
  obs::SpanTimer span(engine, "storage", read ? "pfs.read" : "pfs.write",
                      obs::Track::PfsIo(node, file), len,
                      {.cat = obs::Category::kPfs, .parent = options.parent, .self = self});
  obs::Count(read ? "storage.pfs.read.calls" : "storage.pfs.write.calls");
  obs::Count(read ? "storage.pfs.read.bytes" : "storage.pfs.write.bytes", len);

  int& active = read ? info.active_readers : info.active_writers;
  ++active;
  if (!read) {
    ++info.write_calls;
    info.peak_writers = std::max(info.peak_writers, info.active_writers);
  }
  double inflation = LockInflation(options.layout, active, read);
  const Time sync = cluster_->params().pfs.per_ost_sync_overhead;

  if (read) {
    EcPlan plan = PlanEcRead(file, info, offset, len, options);
    co_await engine.Delay(sync * static_cast<double>(plan.read.sync_targets));
    std::vector<sim::Task> legs;
    legs.reserve(plan.read.streams.size() + 1);
    legs.push_back(sim::Transfer(cluster_->node(node).nic_rx(), plan.read.bytes));
    for (const auto& [ost, bytes] : plan.read.streams)
      legs.push_back(cluster_->pfs().Access(ost, bytes, inflation, self));
    co_await sim::WhenAll(engine, std::move(legs));
    --active;
    co_return;
  }

  EcPlan plan = PlanEcWrite(file, info, offset, len);
  if (plan.rmw) {
    // Partial-stripe RMW: the read phase (old data + parity) runs under the
    // file's stripe lock at an inflated extent-lock footprint — the second
    // OST round trip is the partial-write tax the paper's full-stripe
    // flushes avoid.
    inflation *= kRmwLockPenalty;
    ec_stats_.rmw_read_bytes += plan.read.bytes;
    obs::Count("storage.pfs.ec.rmw_read_bytes", plan.read.bytes);
    auto guard = co_await info.rmw_mutex->Lock();
    obs::SpanTimer rmw_span(engine, "storage", "pfs.ec.rmw_read",
                            obs::Track::PfsIo(node, file), plan.read.bytes,
                            {.cat = obs::Category::kPfs, .parent = self});
    co_await engine.Delay(sync * static_cast<double>(plan.read.sync_targets));
    std::vector<sim::Task> legs;
    legs.reserve(plan.read.streams.size() + 1);
    legs.push_back(sim::Transfer(cluster_->node(node).nic_rx(), plan.read.bytes));
    for (const auto& [ost, bytes] : plan.read.streams)
      legs.push_back(cluster_->pfs().Access(ost, bytes, inflation, self));
    co_await sim::WhenAll(engine, std::move(legs));
  }  // lock released: the write-back phase proceeds concurrently

  co_await engine.Delay(sync * static_cast<double>(plan.write.sync_targets));
  std::vector<sim::Task> legs;
  legs.reserve(plan.write.streams.size() + 1);
  legs.push_back(sim::Transfer(cluster_->node(node).nic_tx(), plan.write.bytes));
  for (std::size_t i = 0; i < plan.write.streams.size(); ++i)
    legs.push_back(EcWriteLeg(plan.write.streams[i].first, plan.write.streams[i].second,
                              inflation, self, std::move(plan.write.applies[i])));
  co_await sim::WhenAll(engine, std::move(legs));

  --active;
  info.size = std::max(info.size, offset + len);
}

void Pfs::FailOst(int ost) {
  if (ost < 0 || ost >= static_cast<int>(ost_failed_.size()) ||
      ost_failed_[static_cast<std::size_t>(ost)])
    return;
  ost_failed_[static_cast<std::size_t>(ost)] = true;
  ++failed_osts_;
  obs::Count("storage.pfs.ec.ost_failures");
  for (const auto& file : files_) {
    if (file->stripe.parity_shards <= 0) continue;
    for (const auto& [s, st] : file->ec_stripes) NoteStripeHealth(*file, st);
  }
}

int Pfs::failed_ost_count() const { return failed_osts_; }

bool Pfs::InjectLatentError(int ost) {
  if (ost < 0 || ost >= static_cast<int>(ost_failed_.size())) return false;
  for (const auto& file : files_) {
    if (file->stripe.parity_shards <= 0) continue;
    for (auto& [s, st] : file->ec_stripes) {
      if (!st.touched()) continue;
      for (std::size_t sh = 0; sh < st.home.size(); ++sh) {
        if (st.home[sh] != ost || st.latent[sh]) continue;
        st.latent[sh] = true;
        ++ec_stats_.latent_injected;
        obs::Count("storage.pfs.ec.latent_injected");
        NoteStripeHealth(*file, st);
        return true;
      }
    }
  }
  return false;
}

sim::Task Pfs::RebuildOst(int ost) {
  auto& engine = cluster_->engine();
  if (ost < 0 || ost >= static_cast<int>(ost_failed_.size()) ||
      !ost_failed_[static_cast<std::size_t>(ost)])
    co_return;
  obs::Count("storage.pfs.ec.rebuild.starts");
  const int osts = static_cast<int>(ost_failed_.size());
  for (std::size_t f = 0; f < files_.size(); ++f) {
    auto& info = *files_[f];
    if (info.stripe.parity_shards <= 0) continue;
    const int k = info.ec_layout.data_shards;
    const int m = info.ec_layout.parity_shards;
    std::vector<std::uint64_t> stripes;
    for (const auto& [s, st] : info.ec_stripes)
      if (std::find(st.home.begin(), st.home.end(), ost) != st.home.end()) stripes.push_back(s);
    if (stripes.empty()) continue;
    obs::SpanTimer span(engine, "storage", "pfs.ec.rebuild",
                        obs::Track::PfsIo(0, static_cast<int>(f)),
                        static_cast<Bytes>(stripes.size()) * info.stripe.stripe_size,
                        {.cat = obs::Category::kPfs});
    for (std::uint64_t s : stripes) {
      EcStripe& st = info.ec_stripes.at(s);
      int shard = -1;
      for (int sh = 0; sh < k + m; ++sh)
        if (st.home[static_cast<std::size_t>(sh)] == ost) shard = sh;
      if (shard < 0) continue;  // a concurrent rebuild already relocated it
      int new_home = -1;
      for (int step = 1; step <= osts; ++step) {
        const int cand = (ost + step) % osts;
        if (ost_failed_[static_cast<std::size_t>(cand)]) continue;
        if (std::find(st.home.begin(), st.home.end(), cand) != st.home.end()) continue;
        new_home = cand;
        break;
      }
      if (new_home < 0) continue;  // nowhere healthy to rebuild onto
      if (!st.touched()) {  // empty shard: metadata-only relocation
        st.home[static_cast<std::size_t>(shard)] = new_home;
        continue;
      }
      std::vector<int> sources;
      int good = 0;
      for (int sh = 0; sh < k + m; ++sh) {
        const auto idx = static_cast<std::size_t>(sh);
        if (ost_failed_[static_cast<std::size_t>(st.home[idx])] || st.latent[idx]) continue;
        ++good;
        if (static_cast<int>(sources.size()) < k) sources.push_back(sh);
      }
      if (good < k) {
        // Beyond redundancy: the stripe cannot be reconstructed.
        for (int j = 0; j < k; ++j) {
          const auto idx = static_cast<std::size_t>(j);
          if ((ost_failed_[static_cast<std::size_t>(st.home[idx])] || st.latent[idx]) &&
              (st.version[idx] > 0 || st.pending[idx] > 0))
            CountLost(static_cast<FileHandle>(f), info, s, j);
        }
        continue;
      }
      // k survivor reads feed one reconstructed shard write.
      std::vector<sim::Task> legs;
      legs.reserve(sources.size() + 1);
      for (int src : sources)
        legs.push_back(cluster_->pfs().Access(st.home[static_cast<std::size_t>(src)],
                                              info.stripe.stripe_size));
      legs.push_back(cluster_->pfs().Access(new_home, info.stripe.stripe_size));
      co_await sim::WhenAll(engine, std::move(legs));
      st.home[static_cast<std::size_t>(shard)] = new_home;
      st.latent[static_cast<std::size_t>(shard)] = false;
      ec_stats_.rebuilt_bytes += info.stripe.stripe_size;
      obs::Count("storage.pfs.ec.rebuilt_bytes", info.stripe.stripe_size);
    }
  }
}

sim::Task Pfs::ScrubPass(Time stripe_interval) {
  auto& engine = cluster_->engine();
  ++ec_stats_.scrub_passes;
  obs::Count("storage.pfs.ec.scrub.passes");
  for (std::size_t f = 0; f < files_.size(); ++f) {
    auto& info = *files_[f];
    if (info.stripe.parity_shards <= 0 || info.ec_stripes.empty()) continue;
    const int k = info.ec_layout.data_shards;
    const int m = info.ec_layout.parity_shards;
    std::vector<std::uint64_t> stripes;
    stripes.reserve(info.ec_stripes.size());
    for (const auto& [s, st] : info.ec_stripes) stripes.push_back(s);
    obs::SpanTimer span(
        engine, "storage", "pfs.ec.scrub", obs::Track::PfsIo(0, static_cast<int>(f)),
        static_cast<Bytes>(stripes.size()) * info.stripe.stripe_size *
            static_cast<Bytes>(k + m),
        {.cat = obs::Category::kPfs});
    for (std::uint64_t s : stripes) {
      EcStripe& st = info.ec_stripes.at(s);
      // Read phase: every surviving shard of the stripe, full shard spans.
      {
        std::vector<sim::Task> legs;
        for (int sh = 0; sh < k + m; ++sh) {
          const int home = st.home[static_cast<std::size_t>(sh)];
          if (!ost_failed_[static_cast<std::size_t>(home)])
            legs.push_back(cluster_->pfs().Access(home, info.stripe.stripe_size));
        }
        if (!legs.empty()) co_await sim::WhenAll(engine, std::move(legs));
      }
      ++ec_stats_.scrub_stripes;
      obs::Count("storage.pfs.ec.scrub.stripes");
      if (st.pending != st.version) {
        // Writes in flight: leave the stripe to its writers.
        obs::Count("storage.pfs.ec.scrub.busy");
        if (stripe_interval > 0) co_await engine.Delay(stripe_interval);
        continue;
      }
      bool torn = false;
      for (int p = 0; p < m; ++p)
        if (st.parity[static_cast<std::size_t>(p)] != st.version) torn = true;
      bool latent = false;
      for (int sh = 0; sh < k + m; ++sh)
        if (st.latent[static_cast<std::size_t>(sh)]) latent = true;
      int good = 0;
      for (int sh = 0; sh < k + m; ++sh) {
        const auto idx = static_cast<std::size_t>(sh);
        if (!ost_failed_[static_cast<std::size_t>(st.home[idx])] && !st.latent[idx]) ++good;
      }
      if (good < k) {
        if (st.touched()) {
          for (int j = 0; j < k; ++j) {
            const auto idx = static_cast<std::size_t>(j);
            if ((ost_failed_[static_cast<std::size_t>(st.home[idx])] || st.latent[idx]) &&
                (st.version[idx] > 0 || st.pending[idx] > 0))
              CountLost(static_cast<FileHandle>(f), info, s, j);
          }
        }
        if (stripe_interval > 0) co_await engine.Delay(stripe_interval);
        continue;
      }
      if (torn || latent) {
        // Repair phase: rewrite torn parity and latent shards.
        std::vector<sim::Task> legs;
        if (torn)
          for (int p = 0; p < m; ++p) {
            const int home = st.home[static_cast<std::size_t>(k + p)];
            if (!ost_failed_[static_cast<std::size_t>(home)])
              legs.push_back(cluster_->pfs().Access(home, info.stripe.stripe_size));
          }
        for (int sh = 0; sh < k + m; ++sh) {
          const auto idx = static_cast<std::size_t>(sh);
          if (st.latent[idx] && !ost_failed_[static_cast<std::size_t>(st.home[idx])])
            legs.push_back(cluster_->pfs().Access(st.home[idx], info.stripe.stripe_size));
        }
        if (!legs.empty()) co_await sim::WhenAll(engine, std::move(legs));
        // Re-check: a write that started during the repair owns the stripe
        // now; its legs will bring parity up to date themselves.
        if (st.pending == st.version) {
          // Max-merge, not assignment: at rest parity never exceeds the
          // applied versions, and the merge cannot regress a concurrent
          // writer's already-applied snapshot.
          for (int p = 0; p < m; ++p) {
            auto& snap = st.parity[static_cast<std::size_t>(p)];
            for (std::size_t j = 0; j < snap.size(); ++j)
              snap[j] = std::max(snap[j], st.version[j]);
          }
          for (int sh = 0; sh < k + m; ++sh) st.latent[static_cast<std::size_t>(sh)] = false;
          ++ec_stats_.scrub_repairs;
          obs::Count("storage.pfs.ec.scrub.repairs");
        } else {
          obs::Count("storage.pfs.ec.scrub.busy");
        }
      }
      if (stripe_interval > 0) co_await engine.Delay(stripe_interval);
    }
  }
}

Pfs::EcScrubReport Pfs::ScrubSweep(bool repair) {
  EcScrubReport report;
  for (std::size_t f = 0; f < files_.size(); ++f) {
    auto& info = *files_[f];
    if (info.stripe.parity_shards <= 0) continue;
    const int k = info.ec_layout.data_shards;
    const int m = info.ec_layout.parity_shards;
    for (auto& [s, st] : info.ec_stripes) {
      ++report.stripes_checked;
      bool torn = false;
      for (int p = 0; p < m; ++p)
        if (st.parity[static_cast<std::size_t>(p)] != st.version) torn = true;
      bool latent = false;
      for (int sh = 0; sh < k + m; ++sh)
        if (st.latent[static_cast<std::size_t>(sh)]) latent = true;
      if (torn) ++report.torn;
      if (latent) ++report.latent;
      int good = 0;
      for (int sh = 0; sh < k + m; ++sh) {
        const auto idx = static_cast<std::size_t>(sh);
        if (!ost_failed_[static_cast<std::size_t>(st.home[idx])] && !st.latent[idx]) ++good;
      }
      if (good < k && st.touched()) {
        ++report.unrecoverable;
        if (repair) {
          for (int j = 0; j < k; ++j) {
            const auto idx = static_cast<std::size_t>(j);
            if ((ost_failed_[static_cast<std::size_t>(st.home[idx])] || st.latent[idx]) &&
                (st.version[idx] > 0 || st.pending[idx] > 0))
              CountLost(static_cast<FileHandle>(f), info, s, j);
          }
        }
        continue;
      }
      if (repair && (torn || latent || st.pending != st.version)) {
        // Data on disk is authoritative: discard abandoned write intents,
        // point parity at the applied versions, rewrite latent shards. Only
        // valid with no writes in flight (post-halt or at quiescence).
        st.pending = st.version;
        for (int p = 0; p < m; ++p) st.parity[static_cast<std::size_t>(p)] = st.version;
        for (int sh = 0; sh < k + m; ++sh) st.latent[static_cast<std::size_t>(sh)] = false;
        if (torn || latent) {
          ++report.repaired;
          ++ec_stats_.scrub_repairs;
        }
      }
    }
  }
  return report;
}

Pfs::EcScrubReport Pfs::ScrubAllNow() { return ScrubSweep(/*repair=*/true); }

Pfs::EcScrubReport Pfs::VerifyParity() const {
  return const_cast<Pfs*>(this)->ScrubSweep(/*repair=*/false);
}

}  // namespace uvs::storage
