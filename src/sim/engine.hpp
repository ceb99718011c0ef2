// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, insertion-sequence)
// order, so two runs with the same seed produce identical traces. Simulation
// time is `uvs::Time` (double seconds) and is unrelated to wall-clock time.
//
// Hot-path design (see docs/PERFORMANCE.md): the event queue is an
// allocation-free 4-ary heap of POD nodes (src/sim/event_heap.hpp).
// Coroutine resumptions are scheduled as raw handles; small trivially
// copyable callbacks are stored inline in the node; only large or
// non-trivial captures fall back to a heap-boxed std::function. Timers can
// be scheduled cancellable (`ScheduleCancellable`) with O(log n) true
// removal, and finished top-level coroutine frames are reclaimed the
// moment they complete, so a long run's memory tracks *live* processes,
// not ever-spawned ones.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.hpp"
#include "src/sim/event.hpp"
#include "src/sim/event_heap.hpp"
#include "src/sim/task.hpp"

namespace uvs::sim {

class Engine;

/// Control block shared between the Engine, the coroutine promise, and any
/// `Process` handles; outlives all three via shared_ptr.
struct ProcessCtl {
  explicit ProcessCtl(Engine& engine);

  Engine* engine;
  Event done_event;
  std::string name;
  std::exception_ptr exception;
  std::uint32_t slot = 0;  // index into Engine::processes_
  bool finished = false;
};

/// Join handle for a spawned simulation process.
class Process {
 public:
  Process() = default;

  bool valid() const { return ctl_ != nullptr; }
  bool finished() const { return ctl_ && ctl_->finished; }
  /// Empty for an invalid (default-constructed) Process.
  const std::string& name() const;

  /// One-shot event triggered when the process returns; `co_await
  /// proc.Done().Wait()` joins it.
  Event& Done() { return ctl_->done_event; }

 private:
  friend class Engine;
  explicit Process(std::shared_ptr<ProcessCtl> ctl) : ctl_(std::move(ctl)) {}
  std::shared_ptr<ProcessCtl> ctl_;
};

/// Handle to a cancellable scheduled event. Copyable; all copies refer to
/// the same pending event. Cancel() after the event fired (or was already
/// cancelled) is a safe no-op — slots are generation-counted.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// True while the event is still pending in the queue.
  bool pending() const;

  /// Removes the pending event in O(log n). Returns true if this call
  /// removed it; false if it already fired or was already cancelled.
  bool Cancel();

 private:
  friend class Engine;
  TimerHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation)
      : engine_(engine), slot_(slot), generation_(generation) {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = EventHeap::kNoSlot;
  std::uint32_t generation_ = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time Now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= Now()). Small trivially
  /// copyable callables are stored inline in the event node (no
  /// allocation); larger or non-trivial ones are boxed.
  template <typename F>
  void Schedule(Time at, F&& fn) {
    heap_.PushCallback(Clamp(at), next_seq_++, EventHeap::kNoSlot, std::forward<F>(fn));
  }

  /// Schedules a raw coroutine resumption — the kernel's cheapest event
  /// (one 16-byte key push + pool write, no allocation, no type erasure).
  void ScheduleResume(Time at, std::coroutine_handle<> h) {
    heap_.PushResume(Clamp(at), next_seq_++, EventHeap::kNoSlot, h);
  }
  void ScheduleResumeNow(std::coroutine_handle<> h) { ScheduleResume(now_, h); }

  /// Schedules `fn` like Schedule() but returns a handle that can remove
  /// the event from the queue in O(log n) before it fires. Used by
  /// FairSharePool to truly cancel superseded completion timers instead of
  /// letting them fire as no-ops.
  template <typename F>
  TimerHandle ScheduleCancellable(Time at, F&& fn) {
    const std::uint32_t slot = heap_.AllocSlot();
    const std::uint32_t generation = heap_.slot_generation(slot);
    heap_.PushCallback(Clamp(at), next_seq_++, slot, std::forward<F>(fn));
    return TimerHandle(this, slot, generation);
  }

  /// Awaitable that resumes the coroutine after `dt` simulated seconds.
  auto Delay(Time dt) {
    struct Awaiter {
      Engine* engine;
      Time dt;
      bool await_ready() const noexcept { return dt <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        engine->ScheduleResume(engine->now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Starts `task` as a top-level process at the current time. The engine
  /// owns the coroutine frame until the process finishes, at which point
  /// the frame is destroyed and its process slot recycled.
  Process Spawn(Task task, std::string name = {});

  /// Runs until the event queue drains. Throws if a process escaped with an
  /// exception.
  void Run();

  /// Runs events with timestamp <= `until`, then advances the clock to
  /// `until`. Returns true if events remain beyond `until`.
  bool RunUntil(Time until);

  /// Dispatches exactly one event (advancing the clock to it); false when
  /// the queue is empty. Crash-point sweeps halt a run at an exact event
  /// index by calling Step() in a counted loop and then inspecting the
  /// torn state the abandoned in-flight work left behind.
  bool Step();

  /// Drops every pending event and destroys every live (suspended) process
  /// frame. Mid-run teardown MUST call this before destroying the objects
  /// those frames reference: locals in abandoned frames (lock guards, flow
  /// handles) unwind here, and they touch mutexes and pools that the
  /// engine's own destructor would otherwise outlive. Idempotent; the
  /// engine is empty but reusable afterwards.
  void Abandon();

  std::uint64_t processed_events() const { return processed_; }
  std::size_t pending_events() const { return heap_.size(); }

  // --- kernel-health introspection (exported as obs:: sim.* metrics) -----
  /// Pending events removed before firing via TimerHandle::Cancel.
  std::uint64_t cancelled_events() const { return cancelled_; }
  /// Largest event-queue depth reached so far.
  std::size_t heap_peak() const { return heap_.peak_size(); }
  /// Finished top-level coroutine frames destroyed and recycled.
  std::uint64_t frames_reclaimed() const { return frames_reclaimed_; }

  /// Number of spawned processes that have not finished. O(1).
  std::size_t live_processes() const { return live_processes_; }

  /// Names of spawned processes that have not finished. After Run()
  /// returns (queue drained), a non-empty result means those processes are
  /// stranded forever — blocked on an event nobody will trigger (deadlock).
  /// Unnamed processes report as "<anonymous>". O(peak-live), not
  /// O(ever-spawned): finished processes leave no record behind.
  std::vector<std::string> UnfinishedProcessNames() const;

 private:
  friend struct Task::promise_type;
  friend class TimerHandle;

  Time Clamp(Time at) const {
    assert(at >= now_ - 1e-12 && "scheduling into the past");
    // `<=` (not `<`) so negative zero normalizes to now_: the event heap
    // compares times by their IEEE bit patterns, which requires every
    // stored time to be a non-negative double with a clear sign bit.
    return at <= now_ ? now_ : at;
  }

  /// Pops and dispatches the top event (advancing the clock to it).
  void DispatchTop();

  /// Destroys the finished process in `slot` and recycles the slot. Called
  /// from the coroutine's final suspend — the frame (and anything pointing
  /// into it) is dead after this returns.
  void ReclaimProcess(std::uint32_t slot);

  bool CancelTimer(std::uint32_t slot, std::uint32_t generation) {
    if (!heap_.CancelSlot(slot, generation)) return false;
    ++cancelled_;
    return true;
  }
  bool TimerPending(std::uint32_t slot, std::uint32_t generation) const;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t frames_reclaimed_ = 0;
  EventHeap heap_;

  struct ProcessRecord {
    Task::Handle handle;
    std::shared_ptr<ProcessCtl> ctl;
  };
  // Slot-indexed; a slot is occupied iff its ctl is non-null. Finished
  // processes are reclaimed immediately, so occupied == live.
  std::vector<ProcessRecord> processes_;
  std::vector<std::uint32_t> free_process_slots_;
  std::size_t live_processes_ = 0;
};

inline bool TimerHandle::pending() const {
  return engine_ != nullptr && engine_->TimerPending(slot_, generation_);
}

inline bool TimerHandle::Cancel() {
  return engine_ != nullptr && engine_->CancelTimer(slot_, generation_);
}

}  // namespace uvs::sim
