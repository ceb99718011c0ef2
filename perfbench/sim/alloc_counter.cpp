// Counting replacement of the global allocation functions (see
// alloc_counter.hpp). Every form of operator new funnels into Allocate and
// every form of operator delete into Deallocate, so coroutine frames,
// containers and aligned allocations are all counted.
#include "sim/alloc_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

// Relaxed atomics: the cluster workload's solo-baseline warmup allocates on
// a worker thread, and only totals are read, after that thread has joined.
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<bool> g_track_live{false};
std::atomic<std::int64_t> g_live{0};

void* Allocate(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) return nullptr;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (g_track_live.load(std::memory_order_relaxed))
    g_live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  return p;
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Deallocate(void* p) noexcept {
  if (p == nullptr) return;
  if (g_track_live.load(std::memory_order_relaxed))
    g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  std::free(p);
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

Snapshot Now() {
  return {g_count.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

void TrackLive(bool on) { g_track_live.store(on, std::memory_order_relaxed); }

std::int64_t LiveBytes() { return g_live.load(std::memory_order_relaxed); }

}  // namespace perfbench::alloc

using perfbench::alloc::AllocateOrThrow;
using perfbench::alloc::Deallocate;
using perfbench::alloc::kDefaultAlign;

void* operator new(std::size_t size) { return AllocateOrThrow(size, kDefaultAlign); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, kDefaultAlign); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::alloc::Allocate(size, kDefaultAlign);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::alloc::Allocate(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return perfbench::alloc::Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return perfbench::alloc::Allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { Deallocate(p); }
void operator delete[](void* p) noexcept { Deallocate(p); }
void operator delete(void* p, std::size_t) noexcept { Deallocate(p); }
void operator delete[](void* p, std::size_t) noexcept { Deallocate(p); }
void operator delete(void* p, std::align_val_t) noexcept { Deallocate(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Deallocate(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { Deallocate(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { Deallocate(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Deallocate(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Deallocate(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  Deallocate(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  Deallocate(p);
}
