// Shared storage devices: an array of independent fair-share pools behind
// one access latency. The DataWarp burst buffer (one pool per BB server
// node) and the Lustre PFS (one pool per OST) are both device arrays; the
// params struct an array is built from fixes the names its pools, spans and
// counters carry. File-level semantics (striping, locking) live in
// storage::Pfs and the systems above; this is just the hardware.
#pragma once

#include <memory>
#include <vector>

#include "src/hw/params.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"

namespace uvs::hw {

class DeviceArray {
 public:
  /// The burst buffer: pools `bb<i>`, spans `bb.access` / `bb.degraded`
  /// on obs::Track::BbNode, counters `hw.bb.*`.
  DeviceArray(sim::Engine& engine, const BurstBufferParams& params);
  /// The PFS: pools `ost<i>`, spans `ost.access` / `ost.degraded` on
  /// obs::Track::Ost, counters `hw.ost.*`.
  DeviceArray(sim::Engine& engine, const PfsParams& params);
  DeviceArray(const DeviceArray&) = delete;
  DeviceArray& operator=(const DeviceArray&) = delete;

  int size() const { return static_cast<int>(pools_.size()); }
  Time latency() const { return latency_; }
  Bytes total_capacity() const;

  sim::FairSharePool& pool(int i) { return *pools_.at(static_cast<std::size_t>(i)); }

  /// Ideal (contention-free) time of an Access(i, bytes): the access
  /// latency plus the pool's solo transfer time.
  Time SoloTime(int i, Bytes bytes) const {
    return latency_ + pools_.at(static_cast<std::size_t>(i))->SoloTime(bytes);
  }

  /// Device access on device `i`: the latency, then `bytes * inflation`
  /// through its pool. `inflation >= 1` models lock overhead (contended
  /// shared-file layouts pay it; log-structured file-per-process does not).
  /// `parent` links the device span into the causal DAG (obs::attribution).
  sim::Task Access(int i, Bytes bytes, double inflation = 1.0, obs::SpanRef parent = {});

  /// Fault window: device `i` serves at `factor` (in (0,1]) of its nominal
  /// bandwidth until Restore(). A second Degrade overwrites the factor
  /// (windows do not nest).
  void Degrade(int i, double factor);
  void Restore(int i);
  bool degraded(int i) const { return windows_.at(static_cast<std::size_t>(i)).factor < 1.0; }
  /// Device `i`'s degraded seconds so far, its open window included.
  Time degraded_seconds(int i) const;
  /// Total degraded device-seconds so far, open windows included.
  Time degraded_seconds() const;
  /// Windows opened on device `i` (an overwriting Degrade opens none).
  int degrade_windows(int i) const { return windows_.at(static_cast<std::size_t>(i)).opened; }

  /// Emits trace spans for still-open degrade windows (covering [since,
  /// now]) and restarts them at now, so pre-export traces show every fault
  /// window. degraded_seconds() and degrade_windows() are unchanged.
  void FlushDegradeSpans();

 private:
  struct Kind;
  static const Kind kBurstBuffer;
  static const Kind kPfs;

  /// One device's fault state: its open window, if any, and its totals.
  struct DegradedWindow {
    double factor = 1.0;  // < 1 while a window is open
    Time since = 0.0;     // start of the open window's unaccounted part
    Time closed = 0.0;    // degraded seconds accounted before `since`
    int opened = 0;       // windows opened
  };

  DeviceArray(sim::Engine& engine, const Kind& kind, int count, Bandwidth bandwidth,
              Bytes capacity, Time latency);
  void EmitDegradeSpan(int i, const DegradedWindow& w);

  const Kind* kind_;
  sim::Engine* engine_;
  Bandwidth bandwidth_;  // nominal, per device
  Bytes capacity_;       // per device
  Time latency_;
  std::vector<std::unique_ptr<sim::FairSharePool>> pools_;
  std::vector<DegradedWindow> windows_;
};

}  // namespace uvs::hw
