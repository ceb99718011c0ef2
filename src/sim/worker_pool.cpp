#include "src/sim/worker_pool.hpp"

#include <algorithm>
#include <chrono>

namespace uvs::sim {

WorkerPool::WorkerPool(int workers) {
  const int n = std::max(workers, 1);
  queues_.resize(static_cast<std::size_t>(n));
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { WorkerLoop(static_cast<std::size_t>(i)); });
}

WorkerPool::~WorkerPool() { Shutdown(); }

int WorkerPool::HardwareThreads() {
  return std::max<int>(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

std::uint64_t WorkerPool::Submit(Job job) {
  std::uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("WorkerPool::Submit after Shutdown");
    ticket = submitted_++;
    queues_[static_cast<std::size_t>(ticket % queues_.size())].push_back(std::move(job));
    ++queued_;
  }
  work_cv_.notify_one();
  return ticket;
}

bool WorkerPool::PopTask(std::size_t self, Job& out) {
  // Own queue first (front: submission order within the partition)...
  if (!queues_[self].empty()) {
    out = std::move(queues_[self].front());
    queues_[self].pop_front();
    return true;
  }
  // ...then steal from the back of the fullest other queue. Which task a
  // steal takes is timing-dependent, but tasks are self-contained, so only
  // scheduling — never results — depends on it.
  std::size_t victim = self;
  std::size_t best = 0;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (q != self && queues_[q].size() > best) {
      victim = q;
      best = queues_[q].size();
    }
  }
  if (best == 0) return false;
  out = std::move(queues_[victim].back());
  queues_[victim].pop_back();
  return true;
}

void WorkerPool::WorkerLoop(std::size_t self) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Job job;
    if (PopTask(self, job)) {
      --queued_;
      ++running_;
      lock.unlock();
      job();          // exceptions are the task wrapper's responsibility
      job = nullptr;  // release captures before reacquiring the lock
      lock.lock();
      ++executed_;
      --running_;
      if (queued_ == 0 && running_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

void WorkerPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return (queued_ == 0 && running_ == 0) || stopping_; });
  if (stopping_) idle_cv_.wait(lock, [this] { return running_ == 0; });
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && threads_.empty()) return;
    stopping_ = true;
    for (auto& queue : queues_) {
      discarded_ += queue.size();
      queue.clear();
    }
    queued_ = 0;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  idle_cv_.notify_all();
}

std::uint64_t WorkerPool::submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return submitted_;
}

std::uint64_t WorkerPool::executed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return executed_;
}

std::uint64_t WorkerPool::discarded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return discarded_;
}

namespace internal {

void AwaitFanout(WorkerPool& pool, FanoutCtl& ctl) {
  {
    std::unique_lock<std::mutex> lock(ctl.mutex);
    // Poll-free fast path: every task calls Finish. The timed re-check only
    // matters when a concurrent Shutdown() discarded queued tasks, whose
    // Finish will never come — then WaitIdle() below settles the rest.
    while (ctl.remaining > 0) {
      if (ctl.done_cv.wait_for(lock, std::chrono::milliseconds(50),
                               [&ctl] { return ctl.remaining == 0; }))
        break;
      lock.unlock();
      pool.WaitIdle();
      lock.lock();
      if (ctl.remaining > 0 && pool.discarded() > 0)
        throw std::runtime_error("WorkerPool shut down with fan-out tasks still pending");
    }
  }
  for (std::size_t i = 0; i < ctl.errors.size(); ++i)
    if (ctl.errors[i]) std::rethrow_exception(ctl.errors[i]);
}

}  // namespace internal

}  // namespace uvs::sim
