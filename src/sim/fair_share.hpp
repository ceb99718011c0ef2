// Equal-share processor-sharing bandwidth pool — the simulator's device and
// link performance model.
//
// All active transfers share the pool's capacity equally: with n flows each
// progresses at `min(per_flow_cap, efficiency(n) * capacity / n)` bytes/s.
// The `efficiency(n)` hook expresses contention that degrades aggregate
// throughput as concurrency grows (e.g. extent-lock conflicts on a Lustre
// OST when many writers share one file).
//
// Implementation: exact virtual-time processor sharing. Virtual work V(t)
// advances at the common per-flow rate; a flow entering with b bytes
// completes when V has advanced by b. Arrivals/departures only change the
// slope, so each is O(log n); no per-flow re-quantization.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/sim/engine.hpp"

namespace uvs::sim {

class FairSharePool {
 public:
  struct Options {
    std::string name = "pool";
    /// Aggregate capacity in bytes/s; must be > 0.
    Bandwidth capacity = 1.0_GBps;
    /// Upper bound on any single flow's rate (e.g. one client's link).
    Bandwidth per_flow_cap = std::numeric_limits<Bandwidth>::infinity();
    /// Aggregate efficiency in (0, 1] as a function of flow count;
    /// identity (always 1.0) when empty.
    std::function<double(std::size_t)> efficiency;
  };

  FairSharePool(Engine& engine, Options options);
  FairSharePool(const FairSharePool&) = delete;
  FairSharePool& operator=(const FairSharePool&) = delete;

  /// Awaitable that completes once `bytes` have moved through the pool.
  /// A zero-byte transfer completes immediately.
  auto Transfer(Bytes bytes) {
    struct Awaiter : Flow {
      FairSharePool* pool;
      Awaiter(FairSharePool* p, Bytes b) : pool(p) { this->bytes = b; }
      bool await_ready() const noexcept { return this->bytes == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        this->handle = h;
        pool->AddFlow(this);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, bytes};
  }

  /// Per-flow rate the pool would grant with `n` active flows.
  Bandwidth RatePerFlow(std::size_t n) const;

  /// Uncontended wall time a `bytes` transfer would take with this pool to
  /// itself (the attribution profiler's "ideal" duration; the surplus over
  /// it is fair-share queuing).
  Time SoloTime(Bytes bytes) const {
    const Bandwidth rate = RatePerFlow(1);
    return rate > 0 ? static_cast<double>(bytes) / rate : 0.0;
  }

  /// Changes aggregate capacity from the current instant onward (used when
  /// CPU shares are re-assigned, e.g. flush-time core migration).
  void SetCapacity(Bandwidth capacity);
  void SetPerFlowCap(Bandwidth cap);

  Bandwidth capacity() const { return options_.capacity; }
  /// Highest capacity this pool has ever had (capacity changes over time
  /// when CPU shares are re-assigned); upper-bounds the service rate for
  /// conservation checks: total_bytes <= peak_capacity * busy_time.
  Bandwidth peak_capacity() const { return peak_capacity_; }
  const std::string& name() const { return options_.name; }
  std::size_t active_flows() const { return heap_.size(); }

  /// Cumulative bytes delivered by completed transfers.
  Bytes total_bytes() const { return total_bytes_; }
  /// Integral of wall time during which >= 1 flow was active.
  Time busy_time() const;
  /// Saturation integral: ∫ max(0, flows(t) - 1) dt — queue-depth-seconds
  /// beyond the one flow the pool can serve at full rate (USE "saturation").
  Time queue_depth_seconds() const;
  std::uint64_t completed_transfers() const { return completed_; }

  /// Bytes the pool can have served so far: peak_capacity * busy_time,
  /// plus half a byte per completed transfer (a flow may complete that much
  /// work early but is credited its full byte count) and a relative term
  /// for accumulated rounding.
  double ServiceBudget() const;
  /// The conservation law: total_bytes() <= ServiceBudget().
  bool Conserves() const { return static_cast<double>(total_bytes_) <= ServiceBudget(); }

 private:
  struct Flow {
    Bytes bytes = 0;
    double vfinish = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> handle;
  };
  struct FlowAfter {
    bool operator()(const Flow* a, const Flow* b) const {
      if (a->vfinish != b->vfinish) return a->vfinish > b->vfinish;
      return a->seq > b->seq;
    }
  };

  void AddFlow(Flow* flow);
  void AdvanceToNow();
  void RescheduleTimer();
  void OnTimer();

  Engine* engine_;
  Options options_;

  double vnow_ = 0.0;  // virtual work per flow, in bytes
  Bandwidth peak_capacity_ = 0.0;
  Time last_update_ = 0.0;
  std::uint64_t next_flow_seq_ = 0;
  // The single pending completion timer. Arrivals, departures, and
  // capacity changes cancel it outright (O(log n) removal from the engine
  // queue) before arming the replacement, so superseded timers never
  // linger in the queue as dead events.
  TimerHandle timer_;
  std::priority_queue<Flow*, std::vector<Flow*>, FlowAfter> heap_;

  Bytes total_bytes_ = 0;
  std::uint64_t completed_ = 0;
  Time busy_time_ = 0.0;
  Time queue_depth_seconds_ = 0.0;
};

}  // namespace uvs::sim
