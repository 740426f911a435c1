#pragma once
// Counting allocator for the traced run.
//
// Replaces the global operator new/delete with malloc/free wrappers. The
// wrappers count only while `set_counting(true)` is in force, so uncounted
// work pays one relaxed load per allocation and nothing else. The traced
// run turns counting on for the traced solve (or pass) alone: its untraced
// baseline then runs without the counting cost, and trace_overhead shows
// that cost. When counting, the wrappers track the allocation count and
// the live and peak heap bytes (malloc_usable_size), which give
// core.allocs, core.peak_heap_mb and the MetricsTimeline alloc column
// (registered through obs::set_alloc_count_source). Unlike
// bench/alloc_counter.hpp, which counts always, it stays off while
// end-to-end metrics are measured.
//
// Replacement operators must be defined in exactly one translation unit and
// must not be inline; kmm_perf is a single translation unit that includes
// this header once.

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perf {

namespace detail {
inline std::atomic<bool> g_counting{false};
inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::int64_t> g_live{0};
inline std::atomic<std::int64_t> g_peak{0};

inline void note_alloc(void* p) noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

inline void note_free(void* p) noexcept {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
}

inline void* allocate(std::size_t size) {
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    note_alloc(p);
    return p;
  }
  throw std::bad_alloc{};
}

inline void* allocate_aligned(std::size_t size, std::align_val_t align) {
  const auto al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al)) {
    note_alloc(p);
    return p;
  }
  throw std::bad_alloc{};
}

inline void release(void* p) noexcept {
  note_free(p);
  std::free(p);
}
}  // namespace detail

/// Turn counting on or off. A block freed while counting lowers live bytes
/// even when it was allocated before counting began, so a peak taken over a
/// counting window is a lower bound on the heap growth inside it.
inline void set_counting(bool on) noexcept {
  detail::g_counting.store(on, std::memory_order_relaxed);
}

/// operator-new calls counted so far (monotonic).
inline std::uint64_t alloc_count() noexcept {
  return detail::g_allocs.load(std::memory_order_relaxed);
}

/// Live heap bytes counted so far.
inline std::int64_t live_heap_bytes() noexcept {
  return detail::g_live.load(std::memory_order_relaxed);
}

/// Restart the high-water mark at the current live size.
inline void reset_peak_heap() noexcept {
  detail::g_peak.store(live_heap_bytes(), std::memory_order_relaxed);
}

/// Heap high-water mark since the last reset_peak_heap().
inline std::int64_t peak_heap_bytes() noexcept {
  return detail::g_peak.load(std::memory_order_relaxed);
}

}  // namespace perf

// GCC cannot see that the replacement new is malloc-backed, so it flags the
// matching free() in the replacement delete.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) { return perf::detail::allocate(size); }
void* operator new[](std::size_t size) { return perf::detail::allocate(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return perf::detail::allocate_aligned(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return perf::detail::allocate_aligned(size, al);
}
void operator delete(void* p) noexcept { perf::detail::release(p); }
void operator delete[](void* p) noexcept { perf::detail::release(p); }
void operator delete(void* p, std::size_t) noexcept { perf::detail::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perf::detail::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { perf::detail::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perf::detail::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perf::detail::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perf::detail::release(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
