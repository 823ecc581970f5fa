#ifndef CROWDRL_TESTS_TESTING_COUNTING_NEW_H_
#define CROWDRL_TESTS_TESTING_COUNTING_NEW_H_

// A counting replacement of the global operator new: it sees every heap
// allocation of the process, on every thread, and records their number
// and the largest single size. Replacing the global allocator is a
// property of the whole binary, so exactly one translation unit of a test
// binary may include this header, and that binary holds only tests that
// read it.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace crowdrl::testing {

inline std::atomic<size_t> g_allocations{0};
inline std::atomic<size_t> g_largest_allocation{0};

/// Allocations made through the global operator new so far.
inline size_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// The largest single allocation since the last ResetLargestAllocation.
inline size_t LargestAllocation() {
  return g_largest_allocation.load(std::memory_order_relaxed);
}
inline void ResetLargestAllocation() {
  g_largest_allocation.store(0, std::memory_order_relaxed);
}

}  // namespace crowdrl::testing

void* operator new(std::size_t size) {
  crowdrl::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  size_t largest =
      crowdrl::testing::g_largest_allocation.load(std::memory_order_relaxed);
  while (size > largest &&
         !crowdrl::testing::g_largest_allocation.compare_exchange_weak(
             largest, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#endif  // CROWDRL_TESTS_TESTING_COUNTING_NEW_H_
