// Mutual exclusion for simulation processes.
// FIFO wakeup order; ownership handed over directly on unlock so the lock
// can never be barged by a process scheduled in between.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <utility>

namespace uvs::sim {

class Engine;

class Mutex;

/// RAII lock ownership; releases on destruction (like std::unique_lock).
class [[nodiscard]] LockGuard {
 public:
  LockGuard() = default;
  explicit LockGuard(Mutex* mutex) : mutex_(mutex) {}
  LockGuard(LockGuard&& other) noexcept : mutex_(std::exchange(other.mutex_, nullptr)) {}
  LockGuard& operator=(LockGuard&& other) noexcept {
    if (this != &other) {
      Release();
      mutex_ = std::exchange(other.mutex_, nullptr);
    }
    return *this;
  }
  ~LockGuard() { Release(); }

  bool owns_lock() const { return mutex_ != nullptr; }
  void Release();

 private:
  Mutex* mutex_ = nullptr;
};

class Mutex {
 public:
  explicit Mutex(Engine& engine) : engine_(&engine) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  bool locked() const { return locked_; }
  std::size_t waiters() const { return waiters_.size(); }

  /// `auto guard = co_await mutex.Lock();` — suspends until acquired. A
  /// waiter whose frame is destroyed before it resumes (Engine::Abandon)
  /// leaves the queue, or passes the lock on if it was already handed it.
  auto Lock() {
    struct Awaiter {
      Mutex* mutex;
      std::coroutine_handle<> waiting;  // set from suspension to resumption
      ~Awaiter() {
        if (waiting) mutex->Abandoned(waiting);
      }
      bool await_ready() {
        if (!mutex->locked_) {
          mutex->locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        waiting = h;
        mutex->waiters_.push_back(h);
      }
      LockGuard await_resume() {
        waiting = {};
        return LockGuard{mutex};
      }
    };
    return Awaiter{this};
  }

 private:
  friend class LockGuard;
  void Unlock();
  /// The frame of `waiter` was destroyed before it resumed.
  void Abandoned(std::coroutine_handle<> waiter);

  Engine* engine_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace uvs::sim
