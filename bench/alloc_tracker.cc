#include "bench/alloc_tracker.h"

#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace {

// Relaxed atomics: the benches are single-threaded; atomicity just keeps
// the replacement functions well-defined if a library thread allocates.
std::atomic<size_t> g_live{0};
std::atomic<size_t> g_peak{0};
std::atomic<size_t> g_count{0};

void TrackAlloc(void* p) {
  if (p == nullptr) return;
  // glibc's malloc_usable_size gives the true block size, so live/peak
  // reflect what the heap actually holds.
  size_t size = malloc_usable_size(p);
  size_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live,
                                       std::memory_order_relaxed)) {
  }
  g_count.fetch_add(1, std::memory_order_relaxed);
}

void TrackFree(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

void* AllocOrThrow(size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  TrackAlloc(p);
  return p;
}

}  // namespace

namespace discsec {
namespace bench {

void ResetAllocStats() {
  size_t live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  g_count.store(0, std::memory_order_relaxed);
}

size_t AllocPeakBytes() { return g_peak.load(std::memory_order_relaxed); }

size_t AllocLiveBytes() { return g_live.load(std::memory_order_relaxed); }

size_t AllocCount() { return g_count.load(std::memory_order_relaxed); }

}  // namespace bench
}  // namespace discsec

void* operator new(size_t size) { return AllocOrThrow(size); }
void* operator new[](size_t size) { return AllocOrThrow(size); }

void operator delete(void* p) noexcept {
  TrackFree(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  TrackFree(p);
  std::free(p);
}
void operator delete(void* p, size_t) noexcept {
  TrackFree(p);
  std::free(p);
}
void operator delete[](void* p, size_t) noexcept {
  TrackFree(p);
  std::free(p);
}
