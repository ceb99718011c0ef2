#include "src/sim/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace uvs::sim {

namespace {
// Residual below half a byte is rounding noise, not remaining work: at
// device rates (>= MB/s) it corresponds to sub-nanosecond error.
constexpr double kResidualEpsilonBytes = 0.5;
}  // namespace

FairSharePool::FairSharePool(Engine& engine, Options options)
    : engine_(&engine),
      options_(std::move(options)),
      peak_capacity_(options_.capacity),
      last_update_(engine.Now()) {
  assert(options_.capacity > 0 && "pool capacity must be positive");
}

Bandwidth FairSharePool::RatePerFlow(std::size_t n) const {
  if (n == 0) return 0.0;
  const double eff = options_.efficiency ? options_.efficiency(n) : 1.0;
  assert(eff > 0.0 && eff <= 1.0 + 1e-9);
  return std::min(options_.per_flow_cap, eff * options_.capacity / static_cast<double>(n));
}

void FairSharePool::AdvanceToNow() {
  const Time now = engine_->Now();
  if (!heap_.empty()) {
    const Time dt = now - last_update_;
    vnow_ += dt * RatePerFlow(heap_.size());
    busy_time_ += dt;
    if (heap_.size() > 1) queue_depth_seconds_ += dt * static_cast<double>(heap_.size() - 1);
  }
  last_update_ = now;
}

void FairSharePool::AddFlow(Flow* flow) {
  AdvanceToNow();
  flow->vfinish = vnow_ + static_cast<double>(flow->bytes);
  flow->seq = next_flow_seq_++;
  heap_.push(flow);
  RescheduleTimer();
}

void FairSharePool::SetCapacity(Bandwidth capacity) {
  assert(capacity > 0);
  AdvanceToNow();
  options_.capacity = capacity;
  peak_capacity_ = std::max(peak_capacity_, capacity);
  RescheduleTimer();
}

void FairSharePool::SetPerFlowCap(Bandwidth cap) {
  assert(cap > 0);
  AdvanceToNow();
  options_.per_flow_cap = cap;
  RescheduleTimer();
}

Time FairSharePool::busy_time() const {
  Time t = busy_time_;
  if (!heap_.empty()) t += engine_->Now() - last_update_;
  return t;
}

Time FairSharePool::queue_depth_seconds() const {
  Time t = queue_depth_seconds_;
  if (heap_.size() > 1)
    t += (engine_->Now() - last_update_) * static_cast<double>(heap_.size() - 1);
  return t;
}

double FairSharePool::ServiceBudget() const {
  return peak_capacity_ * busy_time() +
         kResidualEpsilonBytes * static_cast<double>(completed_) +
         1e-6 * static_cast<double>(total_bytes_) + 1.0;
}

void FairSharePool::RescheduleTimer() {
  timer_.Cancel();  // no-op if it already fired (we are inside OnTimer)
  if (heap_.empty()) return;
  const Bandwidth rate = RatePerFlow(heap_.size());
  const double remaining = std::max(0.0, heap_.top()->vfinish - vnow_);
  const Time now = engine_->Now();
  Time at = now + remaining / rate;
  // Far from t=0 a short transfer can round to no time at all; without at
  // least one step of the clock the timer would refire with no progress
  // forever.
  if (at <= now && remaining > kResidualEpsilonBytes)
    at = std::nextafter(now, std::numeric_limits<Time>::infinity());
  timer_ = engine_->ScheduleCancellable(at, [this] { OnTimer(); });
}

void FairSharePool::OnTimer() {
  AdvanceToNow();
  while (!heap_.empty() && heap_.top()->vfinish <= vnow_ + kResidualEpsilonBytes) {
    Flow* flow = heap_.top();
    heap_.pop();
    total_bytes_ += flow->bytes;
    ++completed_;
    engine_->ScheduleResumeNow(flow->handle);
  }
  RescheduleTimer();
}

}  // namespace uvs::sim
