// Mutual exclusion for simulation processes.
// FIFO wakeup order; ownership handed over directly on unlock so the lock
// can never be barged by a process scheduled in between.
#pragma once

#include <coroutine>
#include <cstddef>
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

/// Never allocates: waiters queue in an intrusive FIFO whose nodes are the
/// Lock() awaiters, which live in the waiting coroutine frames.
class Mutex {
 public:
  explicit Mutex(Engine& engine) : engine_(&engine) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// A pending Lock(); while it waits it is a node of the waiter queue.
  class [[nodiscard]] Awaiter {
   public:
    explicit Awaiter(Mutex* mutex) : mutex_(mutex) {}
    // Queued by address, so it must stay where it was built.
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;
    ~Awaiter() {
      if (waiting_) mutex_->Abandoned(this);
    }
    bool await_ready() {
      if (!mutex_->locked_) {
        mutex_->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      waiting_ = h;
      (mutex_->tail_ != nullptr ? mutex_->tail_->next_ : mutex_->head_) = this;
      mutex_->tail_ = this;
    }
    LockGuard await_resume() {
      waiting_ = {};
      return LockGuard{mutex_};
    }

   private:
    friend class Mutex;
    Mutex* mutex_;
    std::coroutine_handle<> waiting_;  // set from suspension to resumption
    Awaiter* next_ = nullptr;          // the waiter queued after this one
  };

  /// `auto guard = co_await mutex.Lock();` — suspends until acquired. A
  /// waiter whose frame is destroyed before it resumes (Engine::Abandon)
  /// leaves the queue, or passes the lock on if it was already handed it.
  Awaiter Lock() { return Awaiter{this}; }

  bool locked() const { return locked_; }
  /// Processes queued for the lock. O(waiters).
  std::size_t waiters() const;

 private:
  friend class LockGuard;
  void Unlock();
  /// The frame of `waiter` was destroyed before it resumed.
  void Abandoned(Awaiter* waiter);

  Engine* engine_;
  Awaiter* head_ = nullptr;  // oldest waiter: the next owner
  Awaiter* tail_ = nullptr;  // newest waiter
  bool locked_ = false;
};

}  // namespace uvs::sim
