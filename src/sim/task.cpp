#include "src/sim/task.hpp"

#include <cassert>
#include <string>

#include "src/common/log.hpp"
#include "src/sim/combinators.hpp"
#include "src/sim/engine.hpp"

namespace uvs::sim {

namespace {
void LogEscapedException(const std::string& who, const std::exception_ptr& ex) noexcept {
  try {
    std::rethrow_exception(ex);
  } catch (const std::exception& e) {
    UVS_ERROR("sim: " << who << " exited with exception: " << e.what());
  } catch (...) {
    UVS_ERROR("sim: " << who << " exited with a non-std exception");
  }
}

/// Surfaces an escaped exception out of Engine::Run after the current
/// event completes.
void QueueRethrow(Engine& engine, const std::exception_ptr& ex) {
  engine.Schedule(engine.Now(), [ex] { std::rethrow_exception(ex); });
}
}  // namespace

/// The join of one WhenAll fan-out. It lives in the fan-out's frame, and
/// each leg reports to it from its final suspend.
struct Task::Join {
  Engine* engine;
  std::coroutine_handle<> parent;         // the fan-out's frame
  const promise_type* awaited = nullptr;  // the leg `parent` is suspended on

  /// Queues the leg's first resume, as Engine::Spawn queues a process's.
  void Start(Task& leg) {
    if (!leg.valid()) return;  // an empty leg has already finished
    leg.handle_.promise().join = this;
    engine->ScheduleResumeNow(leg.handle_);
  }

  /// Suspends the fan-out until the leg has returned.
  auto Wait(const Task& leg) noexcept {
    struct Awaiter {
      Join* join;
      const Task* leg;
      bool await_ready() const noexcept { return !leg->valid() || leg->done(); }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        join->parent = h;
        join->awaited = &leg->handle_.promise();
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, &leg};
  }

  /// The leg has returned: if the fan-out waits on it, wake the fan-out by
  /// an event, where a process's Done().Trigger() would.
  void Finished(const promise_type& leg) {
    if (awaited != &leg) return;
    awaited = nullptr;
    engine->ScheduleResumeNow(parent);
  }
};

std::coroutine_handle<> Task::promise_type::FinalAwaiter::await_suspend(Handle h) noexcept {
  promise_type& p = h.promise();
  p.done = true;
  if (Join* join = p.join) {
    // Fan-out leg: the fan-out's frame owns this one. As for a process
    // below, the rethrow is queued before the fan-out's wake-up, so Run
    // aborts from this event even if a sibling leg never returns.
    if (p.exception) {
      LogEscapedException("fan-out leg", p.exception);
      QueueRethrow(*join->engine, p.exception);
    }
    join->Finished(p);
    return std::noop_coroutine();
  }
  ProcessCtl* ctl = p.ctl;
  if (ctl == nullptr) {
    // Awaited child: the parent's Task object owns this frame.
    if (p.continuation) return p.continuation;
    return std::noop_coroutine();
  }
  // Top-level process: the engine owns the frame. A spawned task is never
  // also awaited, so it has no continuation.
  assert(!p.continuation);
  ctl->finished = true;
  if (p.exception) {
    LogEscapedException("process '" + ctl->name + "'", p.exception);
    ctl->exception = p.exception;
    QueueRethrow(*ctl->engine, p.exception);
  }
  ctl->done_event.Trigger();
  // Reclaim the frame now that the process is finished: `p`, `h`, and this
  // awaiter all live inside it and are dangling after this call, and `ctl`
  // may be destroyed too if no Process handle shares it. Touch nothing
  // frame- or ctl-reachable below this line.
  ctl->engine->ReclaimProcess(ctl->slot);
  return std::noop_coroutine();
}

// The engine sees the events a join of spawned processes makes: each leg
// starts from its own resume event, queued in leg order, and the frame
// waits on the legs in index order, woken by an event when the leg it
// waits on returns. Only the process machinery is missing. The legs'
// frames, and so their by-value parameters, live until this frame ends,
// so no leg may take a by-value parameter whose destructor acts on the
// simulation (a LockGuard, a flow); obs::Legs' Tagged wrapper takes only
// its inner Task.
Task WhenAll(Engine& engine, std::vector<Task> tasks) {
  Task::Join join{&engine};
  for (Task& leg : tasks) join.Start(leg);
  for (const Task& leg : tasks) co_await join.Wait(leg);
}

}  // namespace uvs::sim
