// Coroutine task type for simulation processes.
//
// A `sim::Task` is a lazily-started coroutine. It is either:
//   * awaited by another task (`co_await Child(...)`): the child starts at
//     the await point and resumes the parent when it finishes,
//   * a leg of a `WhenAll` fan-out (src/sim/combinators.hpp): the fan-out's
//     frame owns the leg, the engine starts it, and the leg wakes the
//     fan-out when it returns, or
//   * spawned as a top-level simulation process (`Engine::Spawn`), in which
//     case the engine owns the coroutine frame and triggers the process's
//     completion event when it returns.
//
// Exceptions thrown inside an awaited child re-throw at the parent's await
// point; exceptions escaping a top-level process or a fan-out leg abort
// `Engine::Run` (the simulation is deterministic, so this is a programming
// error, not a runtime condition).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>
#include <vector>

namespace uvs::sim {

class Engine;
struct ProcessCtl;

class [[nodiscard]] Task {
  struct Join;  // one WhenAll fan-out; defined in task.cpp

 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Task get_return_object() noexcept { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }

    std::coroutine_handle<> continuation;  // parent awaiting this task
    ProcessCtl* ctl = nullptr;             // set iff spawned as a process
    Join* join = nullptr;                  // set iff started as a WhenAll leg
    std::exception_ptr exception;
    bool done = false;
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }
  bool done() const noexcept { return handle_ && handle_.promise().done; }

  /// Awaiting a task starts it; the awaiter resumes when the task returns.
  /// The task object must outlive the await (temporaries do: they are
  /// destroyed after resumption, at the end of the full-expression).
  auto operator co_await() const noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.promise().done; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer: start the child now
      }
      void await_resume() const {
        if (h && h.promise().exception) std::rethrow_exception(h.promise().exception);
      }
    };
    return Awaiter{handle_};
  }

 private:
  friend class Engine;
  friend Task WhenAll(Engine& engine, std::vector<Task> tasks);
  explicit Task(Handle h) noexcept : handle_(h) {}

  /// Releases ownership of the coroutine frame (used by Engine::Spawn).
  Handle Release() noexcept { return std::exchange(handle_, {}); }

  void Destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

}  // namespace uvs::sim
