#include "counting_alloc.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace tfo::bench {
namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void note_alloc(void* p) {
  const std::uint64_t n = malloc_usable_size(p);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t live = g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (p) note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    return nullptr;
  }
  note_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

HeapStats heap_stats() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed),
          g_live_bytes.load(std::memory_order_relaxed),
          g_peak_bytes.load(std::memory_order_relaxed)};
}

void reset_heap_peak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

}  // namespace tfo::bench

using tfo::bench::counted_aligned_alloc;
using tfo::bench::counted_alloc;
using tfo::bench::counted_free;

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a));
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
