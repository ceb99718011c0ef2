#include "src/obs/sketch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/json.hpp"

namespace uvs::obs {

namespace {

/// Values below this are indistinguishable from zero at any useful
/// relative accuracy; they share the zero bucket.
constexpr double kMinRepresentable = 1e-12;

}  // namespace

QuantileSketch::QuantileSketch(double relative_error, std::size_t max_buckets)
    : alpha_(relative_error), max_buckets_(std::max<std::size_t>(max_buckets, 2)) {
  assert(relative_error > 0.0 && relative_error < 1.0);
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
}

std::int32_t QuantileSketch::BucketIndex(double x) const {
  // Bucket i covers (gamma^(i-1), gamma^i]; the midpoint estimate
  // 2*gamma^i/(gamma+1) is within alpha of every value in the bucket.
  return static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma_));
}

double QuantileSketch::BucketValue(std::int32_t index) const {
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void QuantileSketch::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  if (x <= kMinRepresentable) {
    ++zero_count_;
    return;
  }
  ++buckets_[BucketIndex(x)];
  CollapseIfNeeded();
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  assert(alpha_ == other.alpha_ && "sketches must share a relative_error to merge");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  collapsed_ += other.collapsed_;
  for (const auto& [index, cnt] : other.buckets_) buckets_[index] += cnt;
  CollapseIfNeeded();
}

void QuantileSketch::CollapseIfNeeded() {
  // Fold the lowest bucket into its neighbour until under the cap: the
  // tail keeps its guarantee, the collapsed head degrades gracefully.
  while (buckets_.size() > max_buckets_) {
    auto lowest = buckets_.begin();
    auto next = std::next(lowest);
    collapsed_ += lowest->second;
    next->second += lowest->second;
    buckets_.erase(lowest);
  }
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank, matching cluster::Quantile: the ceil(q*n)-th smallest.
  const double want = q * static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(want));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  if (rank <= zero_count_) return min();
  std::uint64_t cum = zero_count_;
  for (const auto& [index, cnt] : buckets_) {
    cum += cnt;
    if (cum >= rank) {
      // Clamping into [min, max] only ever moves the estimate toward the
      // true value (which lies in that range), so the bound is preserved
      // and the extremes are exact.
      return std::clamp(BucketValue(index), min_, max_);
    }
  }
  return max();
}

std::string QuantileSketch::ToJson() const {
  std::string out = "{";
  out += "\"count\":" + std::to_string(count_);
  out += ",\"min\":" + json::Number(min());
  out += ",\"max\":" + json::Number(max());
  out += ",\"mean\":" + json::Number(mean());
  out += ",\"sum\":" + json::Number(sum_);
  out += ",\"p50\":" + json::Number(Quantile(0.5));
  out += ",\"p90\":" + json::Number(Quantile(0.9));
  out += ",\"p99\":" + json::Number(Quantile(0.99));
  out += ",\"relative_error\":" + json::Number(alpha_);
  out += ",\"buckets\":" + std::to_string(buckets_.size());
  out += ",\"collapsed\":" + std::to_string(collapsed_);
  out += ",\"zero\":" + std::to_string(zero_count_);
  out += "}";
  return out;
}

}  // namespace uvs::obs
