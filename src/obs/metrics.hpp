// Named metrics registry: counters (monotonic totals), gauges (last-set
// values, snapshotted by the sampler), and distributions (RunningStats
// moments plus an optional fixed-bucket Histogram for quantiles).
//
// Metric objects live as long as the registry; handles returned by the
// Get* accessors stay valid, so hot paths can cache them. Iteration order
// is the name's lexicographic order, which keeps every export
// deterministic. Lookups take a std::string_view and find an existing name
// without building a std::string; only a name's first use allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/stats.hpp"

namespace uvs::obs {

class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Distribution {
 public:
  void Observe(double x) {
    stats_.Add(x);
    if (buckets_ != nullptr) buckets_->Add(x);
  }

  /// Enables bucket-granular quantiles over [lo, hi); no-op if already
  /// attached (the first caller's bounds win).
  void AttachBuckets(double lo, double hi, std::size_t buckets) {
    if (buckets_ == nullptr) buckets_ = std::make_unique<Histogram>(lo, hi, buckets);
  }

  const RunningStats& stats() const { return stats_; }
  const Histogram* buckets() const { return buckets_.get(); }

 private:
  RunningStats stats_;
  std::unique_ptr<Histogram> buckets_;
};

class MetricsRegistry {
 public:
  template <class Metric>
  using Map = std::map<std::string, Metric, std::less<>>;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Distribution& GetDistribution(std::string_view name);

  const Map<Counter>& counters() const { return counters_; }
  const Map<Gauge>& gauges() const { return gauges_; }
  const Map<Distribution>& distributions() const { return distributions_; }

 private:
  // std::map for stable node addresses (cached handles) and sorted export.
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Distribution> distributions_;
};

}  // namespace uvs::obs
