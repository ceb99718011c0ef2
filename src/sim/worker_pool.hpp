// Fixed-thread work-stealing pool for fanning *independent* simulation
// runs across cores.
//
// The discrete-event engine itself stays single-threaded and deterministic
// (engine.hpp); what the codebase is full of instead is embarrassingly
// parallel *outer* loops — cluster::ClusterSim's memoized solo-baseline
// runs, uvfuzz's seed sweeps, bench_trajectory's figure smokes — each
// iteration a complete private engine with no shared mutable state. The
// WorkerPool drains those loops across threads while keeping every
// individual run bit-identical to its serial execution:
//
//   * Tasks carry a deterministic identity (their submission index), and
//     ParallelMap() collects results *by index*, so the caller observes the
//     same ordered result vector no matter how execution interleaved.
//   * Each task runs a private engine. The obs:: singletons (Recorder,
//     FlightRecorder) are thread-locally bound, so a worker observes
//     nothing unless it installs its own recorder — exactly the serial
//     behaviour of running a solo baseline with the recorder uninstalled.
//   * Queues are partitioned per worker (submission index picks the home
//     queue round-robin); idle workers steal from the back of the fullest
//     other queue. Stealing only changes *which thread* runs a task, never
//     what the task computes.
//
// Exceptions thrown by a task are captured and rethrown by ParallelMap /
// ParallelFor on the calling thread — lowest task index first, after every
// task has settled. Shutdown() (and the destructor) finishes tasks already
// running, discards queued ones, and joins; discarded tasks are counted,
// and a ParallelMap whose tasks were discarded reports it as an error
// rather than returning partial results.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace uvs::sim {

class WorkerPool {
 public:
  using Job = std::function<void()>;

  /// Spawns `workers` threads (clamped to >= 1). A 1-worker pool is a
  /// valid degenerate case: tasks still run on the (single) worker thread,
  /// exercising the same code path as -j N.
  explicit WorkerPool(int workers);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  int worker_count() const { return static_cast<int>(threads_.size()); }

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows 0 for "unknown").
  static int HardwareThreads();

  /// Enqueues `job` on queue (index % workers) and returns the task's
  /// deterministic identity: submission indices count up from 0 in call
  /// order. Throws std::runtime_error after Shutdown().
  std::uint64_t Submit(Job job);

  /// Blocks until every submitted task has either run or been discarded by
  /// a concurrent Shutdown().
  void WaitIdle();

  /// Stops accepting work, discards tasks still queued, waits for tasks
  /// already running, and joins the threads. Idempotent.
  void Shutdown();

  // --- introspection (exact after WaitIdle/Shutdown) ----------------------
  std::uint64_t submitted() const;
  std::uint64_t executed() const;
  /// Tasks discarded unrun by Shutdown().
  std::uint64_t discarded() const;

 private:
  void WorkerLoop(std::size_t self);
  /// Pops the next task for worker `self` (own queue front, else steal
  /// from the back of the fullest other queue). Caller holds mutex_.
  bool PopTask(std::size_t self, Job& out);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: "task queued or stopping"
  std::condition_variable idle_cv_;  // WaitIdle: "everything settled"
  std::vector<std::deque<Job>> queues_;  // one per worker
  std::vector<std::thread> threads_;
  bool stopping_ = false;
  std::size_t queued_ = 0;   // tasks in queues_
  std::size_t running_ = 0;  // tasks currently executing
  std::uint64_t submitted_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t discarded_ = 0;
};

namespace internal {

/// Shared completion state for one ParallelMap/ParallelFor call.
struct FanoutCtl {
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t remaining = 0;
  std::vector<std::exception_ptr> errors;  // slot per task index

  explicit FanoutCtl(std::size_t n) : remaining(n), errors(n) {}

  void Finish(std::size_t index, std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex);
    errors[index] = std::move(error);
    --remaining;
    if (remaining == 0) done_cv.notify_all();
  }
};

/// Waits for all tasks, accounting for tasks discarded by Shutdown (which
/// never call Finish); rethrows the lowest-index captured exception.
void AwaitFanout(WorkerPool& pool, FanoutCtl& ctl);

}  // namespace internal

/// Applies `fn(i)` for every i in [0, n) across the pool and returns the
/// results *in index order* — the deterministic-identity contract: the
/// result vector is identical to the serial loop `for i: out[i] = fn(i)`
/// no matter how many workers ran it or how tasks interleaved. Blocks the
/// calling thread. If any task threw, the lowest-index exception is
/// rethrown after every task settled.
template <typename R, typename Fn>
std::vector<R> ParallelMap(WorkerPool& pool, std::size_t n, Fn fn) {
  std::vector<std::optional<R>> slots(n);
  internal::FanoutCtl ctl(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.Submit([&slots, &ctl, fn, i] {
      std::exception_ptr error;
      try {
        slots[i].emplace(fn(i));
      } catch (...) {
        error = std::current_exception();
      }
      ctl.Finish(i, std::move(error));
    });
  }
  internal::AwaitFanout(pool, ctl);
  std::vector<R> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(*slots[i]));
  return out;
}

/// ParallelMap without results: runs `fn(i)` for i in [0, n), blocks until
/// all settled, rethrows the lowest-index exception.
template <typename Fn>
void ParallelFor(WorkerPool& pool, std::size_t n, Fn fn) {
  internal::FanoutCtl ctl(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.Submit([&ctl, fn, i] {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      ctl.Finish(i, std::move(error));
    });
  }
  internal::AwaitFanout(pool, ctl);
}

}  // namespace uvs::sim
