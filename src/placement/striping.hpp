// Adaptive data striping for server-side flush (§II-D, Eqs. 2–6).
//
// Case 1 — fewer flushing servers than OSTs: each server's contiguous file
// range is striped across a *distinct* set of Cper_server OSTs,
//     Cper_server = min(Cmax_units / Cservers, alpha)            (Eq. 2)
//     Sstripe     = min(Sfile / (Cservers * Cper_server), Smax)  (Eq. 3)
//     Cstripe     = min(Sfile / Sstripe, Cmax_units)             (Eq. 4)
// where alpha is the smallest OST count that saturates one server's write
// bandwidth.
//
// Case 2 — more servers than OSTs: servers overlap on OSTs; to keep every
// OST equally loaded the server count is rounded up to a multiple of the
// OST count ("dummy servers"),
//     Sstripe      = Sfile / Cdum_servers                        (Eq. 5)
//     Cdum_servers = ceil(Cservers / Cmax_units) * Cmax_units    (Eq. 6)
// and server s flushes to OST s mod Cmax_units.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/units.hpp"

namespace uvs::placement {

struct StripingParams {
  /// Minimum OST count that saturates a single server (alpha in Eq. 2).
  int alpha = 8;
  /// Maximum stripe size the file system allows (Smax in Eq. 3).
  Bytes max_stripe_size = 1_GiB;
};

enum class StripeMode {
  kDistinctSets,      // case 1: each server owns Cper_server OSTs
  kOneOstPerServer,   // case 2: server s -> OST s mod osts
  kAllOsts,           // non-adaptive default: everyone targets every OST
};

struct StripePlan {
  Bytes stripe_size = 0;
  int stripe_count = 0;
  StripeMode mode = StripeMode::kAllOsts;
  /// True in case 1 (distinct per-server OST sets).
  bool distinct_sets = false;
  /// Cper_server in case 1; 1 in case 2.
  int osts_per_server = 1;
  /// Cdum_servers (== servers in case 1).
  int dummy_servers = 0;

  int servers = 0;
  int osts = 0;

  /// OSTs server `s` flushes its range to.
  std::vector<int> TargetsFor(int server) const;

  /// Bytes of the file assigned to server `s` (contiguous range split).
  Bytes RangeBytesFor(int server, Bytes file_size) const;
};

/// Eqs. 2–6; requires file_size > 0, servers > 0, osts > 0.
StripePlan PlanAdaptiveStriping(Bytes file_size, int servers, int osts,
                                const StripingParams& params);

/// The non-adaptive default the paper contrasts against: every shared file
/// striped across all OSTs with a fixed stripe size, requests directed
/// uncoordinated.
StripePlan PlanDefaultStriping(Bytes file_size, int servers, int osts,
                               Bytes default_stripe_size = 1_MiB);

/// Erasure-coded shard layout: each stripe's k data + m parity shards land
/// on k+m *distinct* OSTs (a shard-failure domain is one OST), rotated per
/// stripe RAID-5 style so parity I/O spreads evenly instead of hammering a
/// dedicated parity device.
struct EcLayout {
  int data_shards = 1;    // k, clamped so k + m <= osts
  int parity_shards = 0;  // m, clamped to osts - 1
  int osts = 1;
  int ost_offset = 0;
};

/// Clamps (k, m) to fit `osts` distinct failure domains: m first (a parity
/// shard per surviving OST is the redundancy budget), then k into the rest.
EcLayout PlanEcLayout(int data_shards, int parity_shards, int osts, int ost_offset);

/// Home OST of shard `shard` (0..k+m-1; >= k is parity) of stripe `stripe`.
/// Distinct across shards of one stripe by construction.
int EcShardOst(const EcLayout& layout, std::uint64_t stripe, int shard);

}  // namespace uvs::placement
