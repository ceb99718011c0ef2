#include "src/sim/sync.hpp"

#include <algorithm>

#include "src/sim/engine.hpp"

namespace uvs::sim {

void LockGuard::Release() {
  if (mutex_ != nullptr) {
    mutex_->Unlock();
    mutex_ = nullptr;
  }
}

void Mutex::Unlock() {
  if (waiters_.empty()) {
    locked_ = false;
    return;
  }
  // Hand the lock to the oldest waiter; locked_ stays true.
  auto handle = waiters_.front();
  waiters_.pop_front();
  engine_->ScheduleResumeNow(handle);
}

void Mutex::Abandoned(std::coroutine_handle<> waiter) {
  const auto it = std::find(waiters_.begin(), waiters_.end(), waiter);
  if (it != waiters_.end()) {
    waiters_.erase(it);
  } else {
    Unlock();  // Unlock() had handed it the lock; hand it on
  }
}

}  // namespace uvs::sim
