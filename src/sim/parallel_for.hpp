// Fans independent simulation runs across threads.
//
// The discrete-event engine itself stays single-threaded and deterministic
// (engine.hpp). What runs in parallel are *outer* loops whose iterations
// are complete private engine runs with no shared mutable state: uvfuzz's
// seed sweep (testkit::RunSeedBatch) and cluster::ClusterSim's memoized
// solo baselines. ParallelFor runs such a loop so that every iteration
// computes what the serial loop would:
//
//   * Threads claim indices in ascending order from one atomic counter, so
//     by the time any index i starts, every index below i has been claimed.
//   * With one worker the calling thread runs every index and keeps its
//     thread-local obs::Recorder and obs::FlightRecorder bindings. With
//     more, the indices run on threads that observe nothing unless they
//     install a recorder of their own, so concurrent runs never interleave
//     spans, metrics or flight-recorder notes.
//   * Every index runs; then the exception of the lowest index that threw
//     is rethrown on the calling thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace uvs::sim {

/// std::thread::hardware_concurrency with a floor of 1 (the standard
/// allows 0 for "unknown").
inline int HardwareThreads() {
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

/// The number of threads ParallelFor(n, workers, ...) runs on: `workers`,
/// where 0 means one per hardware thread, clamped to
/// [1, min(n, HardwareThreads())]. No request starts more threads than the
/// machine has.
inline int ResolveWorkers(std::size_t n, int workers) {
  const int hardware = HardwareThreads();
  const int cap = static_cast<int>(std::min(n, static_cast<std::size_t>(hardware)));
  return std::clamp(workers == 0 ? hardware : workers, 1, std::max(cap, 1));
}

/// Runs fn(i) for every i in [0, n) on ResolveWorkers(n, workers) threads
/// and returns when all have run. If any fn(i) threw, rethrows the
/// exception of the lowest such i.
template <typename Fn>
void ParallelFor(std::size_t n, int workers, Fn&& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;  // guarded by error_mutex
  std::exception_ptr error;     // guarded by error_mutex
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };
  const int threads = ResolveWorkers(n, workers);
  if (threads == 1) {
    drain();
  } else {
    // Declared after everything `drain` reads, so the threads join —
    // also when starting one of them throws — before any of it is gone.
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(drain);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace uvs::sim
