#include "src/hw/device_array.hpp"

#include <cassert>
#include <cmath>
#include <string>

namespace uvs::hw {

/// The names one kind of array reports under. Golden trace digests and
/// the pinned run reports contain every one of them.
struct DeviceArray::Kind {
  const char* pool_prefix;
  const char* access_span;
  const char* degrade_span;
  obs::Category cat;
  obs::Track (*track)(int);
  const char* accesses_counter;
  const char* bytes_counter;
  const char* windows_counter;
};

const DeviceArray::Kind DeviceArray::kBurstBuffer{
    .pool_prefix = "bb",
    .access_span = "bb.access",
    .degrade_span = "bb.degraded",
    .cat = obs::Category::kBb,
    .track = &obs::Track::BbNode,
    .accesses_counter = "hw.bb.accesses",
    .bytes_counter = "hw.bb.bytes",
    .windows_counter = "hw.bb.degrade_windows",
};

const DeviceArray::Kind DeviceArray::kPfs{
    .pool_prefix = "ost",
    .access_span = "ost.access",
    .degrade_span = "ost.degraded",
    .cat = obs::Category::kPfs,
    .track = &obs::Track::Ost,
    .accesses_counter = "hw.ost.accesses",
    .bytes_counter = "hw.ost.bytes",
    .windows_counter = "hw.ost.degrade_windows",
};

DeviceArray::DeviceArray(sim::Engine& engine, const BurstBufferParams& params)
    : DeviceArray(engine, kBurstBuffer, params.bb_nodes, params.bw_per_bb_node,
                  params.capacity_per_bb_node, params.latency) {}

DeviceArray::DeviceArray(sim::Engine& engine, const PfsParams& params)
    : DeviceArray(engine, kPfs, params.osts, params.bw_per_ost, params.capacity_per_ost,
                  params.latency) {}

DeviceArray::DeviceArray(sim::Engine& engine, const Kind& kind, int count, Bandwidth bandwidth,
                         Bytes capacity, Time latency)
    : kind_(&kind),
      engine_(&engine),
      bandwidth_(bandwidth),
      capacity_(capacity),
      latency_(latency) {
  pools_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    pools_.push_back(std::make_unique<sim::FairSharePool>(
        engine, sim::FairSharePool::Options{.name = kind.pool_prefix + std::to_string(i),
                                            .capacity = bandwidth}));
  }
  windows_.resize(pools_.size());
}

Bytes DeviceArray::total_capacity() const {
  return capacity_ * static_cast<Bytes>(pools_.size());
}

sim::Task DeviceArray::Access(int i, Bytes bytes, double inflation, obs::SpanRef parent) {
  assert(inflation >= 1.0);
  obs::SpanTimer span(*engine_, "hw", kind_->access_span, kind_->track(i), bytes,
                      {.cat = kind_->cat, .parent = parent});
  obs::Count(kind_->accesses_counter);
  obs::Count(kind_->bytes_counter, bytes);
  co_await engine_->Delay(latency_);
  const auto effective = static_cast<Bytes>(std::llround(static_cast<double>(bytes) * inflation));
  co_await pool(i).Transfer(effective);
}

void DeviceArray::EmitDegradeSpan(int i, const DegradedWindow& w) {
  if (obs::Recorder* r = obs::Recorder::Current(); r && engine_->Now() > w.since) {
    r->AddSpanTagged("hw", kind_->degrade_span, kind_->track(i), w.since, engine_->Now(),
                     obs::kNoBytes, {.cat = obs::Category::kDegraded});
  }
}

void DeviceArray::Degrade(int i, double factor) {
  assert(factor > 0.0 && factor <= 1.0);
  DegradedWindow& w = windows_.at(static_cast<std::size_t>(i));
  if (w.factor < 1.0) {  // overwrite closes the old window
    w.closed += engine_->Now() - w.since;
    EmitDegradeSpan(i, w);
  } else {
    ++w.opened;
    obs::Count(kind_->windows_counter);
  }
  w.factor = factor;
  w.since = engine_->Now();
  pool(i).SetCapacity(bandwidth_ * factor);
}

void DeviceArray::Restore(int i) {
  DegradedWindow& w = windows_.at(static_cast<std::size_t>(i));
  if (w.factor >= 1.0) return;
  w.closed += engine_->Now() - w.since;
  EmitDegradeSpan(i, w);
  w.factor = 1.0;
  pool(i).SetCapacity(bandwidth_);
}

void DeviceArray::FlushDegradeSpans() {
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    DegradedWindow& w = windows_[i];
    if (w.factor >= 1.0) continue;
    w.closed += engine_->Now() - w.since;
    EmitDegradeSpan(static_cast<int>(i), w);
    w.since = engine_->Now();  // window stays open; accounting restarts here
  }
}

Time DeviceArray::degraded_seconds(int i) const {
  const DegradedWindow& w = windows_.at(static_cast<std::size_t>(i));
  return w.factor < 1.0 ? w.closed + (engine_->Now() - w.since) : w.closed;
}

Time DeviceArray::degraded_seconds() const {
  Time total = 0.0;
  for (int i = 0; i < size(); ++i) total += degraded_seconds(i);
  return total;
}

}  // namespace uvs::hw
