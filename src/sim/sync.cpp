#include "src/sim/sync.hpp"

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

}  // namespace uvs::sim
