// Heap-allocation counters fed by the counting global operator new in
// alloc_counter.cpp, which is linked into the benchmark binary only.
//
// Counts and requested bytes are always on (two relaxed atomic adds per
// allocation). Live-byte tracking is off by default and switched on only
// around the replays, whose footprint it measures; while it is on, every
// allocation and deallocation also pays a malloc_usable_size lookup.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Snapshot {
  std::uint64_t count = 0;  // allocations so far
  std::uint64_t bytes = 0;  // bytes requested so far

  Snapshot operator-(const Snapshot& earlier) const {
    return {count - earlier.count, bytes - earlier.bytes};
  }
  Snapshot& operator+=(const Snapshot& more) {
    count += more.count;
    bytes += more.bytes;
    return *this;
  }
};

Snapshot Now();

/// Starts or stops live-byte tracking. Only blocks that are allocated and
/// freed while tracking is on are counted, so measure a structure that is
/// built entirely inside the tracked window.
void TrackLive(bool on);
/// Usable bytes allocated and not yet freed while tracking was on.
std::int64_t LiveBytes();

}  // namespace perfbench::alloc
