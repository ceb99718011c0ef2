#include "src/sim/sync.hpp"

#include "src/sim/engine.hpp"

namespace uvs::sim {

void LockGuard::Release() {
  if (mutex_ != nullptr) {
    mutex_->Unlock();
    mutex_ = nullptr;
  }
}

std::size_t Mutex::waiters() const {
  std::size_t count = 0;
  for (const Awaiter* w = head_; w != nullptr; w = w->next_) ++count;
  return count;
}

void Mutex::Unlock() {
  Awaiter* const next = head_;
  if (next == nullptr) {
    locked_ = false;
    return;
  }
  // Hand the lock to the oldest waiter; locked_ stays true.
  head_ = next->next_;
  if (head_ == nullptr) tail_ = nullptr;
  engine_->ScheduleResumeNow(next->waiting_);
}

void Mutex::Abandoned(Awaiter* waiter) {
  Awaiter* prev = nullptr;
  for (Awaiter* w = head_; w != nullptr; prev = w, w = w->next_) {
    if (w != waiter) continue;
    (prev != nullptr ? prev->next_ : head_) = w->next_;
    if (tail_ == w) tail_ = prev;
    return;
  }
  Unlock();  // Unlock() had handed it the lock; hand it on
}

}  // namespace uvs::sim
