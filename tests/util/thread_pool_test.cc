#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace crowdrl {
namespace {

TEST(ThreadPoolTest, SingleThreadSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.num_threads(), 1);
}

TEST(ThreadPoolTest, ReportsRequestedConcurrency) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  // Chunks write disjoint slots, so no synchronization is needed and any
  // double-visit or gap shows up as a wrong count.
  std::vector<int> visits(1000, 0);
  pool.ParallelFor(0, visits.size(), 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++visits[i];
  });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SubrangeOnlyTouchesItsIndices) {
  ThreadPool pool(3);
  std::vector<int> visits(100, 0);
  pool.ParallelFor(25, 75, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++visits[i];
  });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], (i >= 25 && i < 75) ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, RangeWithinOneGrainRunsInlineAsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::thread::id chunk_thread;
  pool.ParallelFor(0, 10, 64, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    chunk_thread = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(chunk_thread, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ZeroGrainIsTreatedAsOne) {
  ThreadPool pool(2);
  std::vector<int> visits(20, 0);
  pool.ParallelFor(0, visits.size(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++visits[i];
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, PerChunkReductionMatchesSerialSum) {
  // The determinism pattern the hot paths rely on: store per-element terms
  // (here per-index products), reduce serially afterwards.
  std::vector<double> terms(5000);
  ThreadPool pool(4);
  pool.ParallelFor(0, terms.size(), 33, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      terms[i] = 0.5 * static_cast<double>(i) + 1.0;
    }
  });
  double parallel_sum = 0.0;
  for (double t : terms) parallel_sum += t;

  double serial_sum = 0.0;
  for (size_t i = 0; i < terms.size(); ++i) {
    serial_sum += 0.5 * static_cast<double>(i) + 1.0;
  }
  EXPECT_EQ(parallel_sum, serial_sum);  // Bitwise, not approximate.
}

TEST(ThreadPoolTest, NestedParallelForOnSamePoolRunsSeriallyWithoutDeadlock) {
  // Regression: a nested ParallelFor on the same pool used to overwrite
  // job_/generation_ mid-dispatch and deadlock. It must now run the nested
  // range inline on the calling lane, covering every index exactly once.
  ThreadPool pool(4);
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 32;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  for (auto& v : visits) v.store(0);
  pool.ParallelFor(0, kOuter, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(0, kInner, 4, [&](size_t jb, size_t je) {
        // The nested call must stay on this lane: the outer workers are
        // all busy, so handing it to them could only hang.
        for (size_t j = jb; j < je; ++j) ++visits[i * kInner + j];
      });
    }
  });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPoolTest, NestedCallOnDifferentPoolStillDispatches) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::vector<std::atomic<int>> visits(200);
  for (auto& v : visits) v.store(0);
  outer.ParallelFor(0, 2, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      inner.ParallelFor(i * 100, (i + 1) * 100, 5, [&](size_t jb, size_t je) {
        for (size_t j = jb; j < je; ++j) ++visits[j];
      });
    }
  });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "slot " << i;
  }
}

// Two threads dispatching into one pool at once: one owns the workers,
// the other runs its range inline, and both cover their ranges exactly
// once. Unguarded, the callers overwrote each other's job and could be
// released by one worker ack while the worker still ran a returned job.
TEST(ThreadPoolTest, ConcurrentExternalCallersEachCoverTheirRange) {
  ThreadPool pool(3);
  constexpr size_t kRange = 500;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<int>> visits(2 * kRange);
    for (auto& v : visits) v.store(0);
    auto dispatch = [&](size_t base) {
      pool.ParallelFor(base, base + kRange, 7, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++visits[i];
      });
    };
    std::thread other(dispatch, kRange);
    dispatch(0);
    other.join();
    for (size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "round " << round << " slot " << i;
    }
  }
}

// A -> B -> A: a loop body of `a` dispatches into `b`, whose body
// dispatches back into `a`. The same-pool check only sees the innermost
// pool, so on the thread that owns `a` the innermost call must find `a`
// busy and run inline instead of re-dispatching on (or deadlocking) it.
TEST(ThreadPoolTest, ReentryThroughASecondPoolRunsInline) {
  ThreadPool a(2);
  ThreadPool b(2);
  constexpr size_t kOuter = 8;
  constexpr size_t kMiddle = 6;
  constexpr size_t kInner = 40;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> visits(kOuter * kMiddle * kInner);
    for (auto& v : visits) v.store(0);
    a.ParallelFor(0, kOuter, 1, [&](size_t o0, size_t o1) {
      for (size_t o = o0; o < o1; ++o) {
        b.ParallelFor(0, kMiddle, 1, [&](size_t m0, size_t m1) {
          for (size_t m = m0; m < m1; ++m) {
            const size_t base = (o * kMiddle + m) * kInner;
            a.ParallelFor(base, base + kInner, 3, [&](size_t i0, size_t i1) {
              for (size_t i = i0; i < i1; ++i) ++visits[i];
            });
          }
        });
      }
    });
    for (size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "round " << round << " slot " << i;
    }
  }
}

TEST(ThreadPoolTest, DispatchAfterNestedInlineRunStillWorks) {
  // The in-pool flag must be restored when an outer dispatch finishes so
  // later top-level ParallelFor calls go wide again.
  ThreadPool pool(3);
  pool.ParallelFor(0, 8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(0, 4, 1, [&](size_t, size_t) {});
    }
  });
  std::atomic<size_t> count{0};
  pool.ParallelFor(0, 100, 3, [&](size_t begin, size_t end) {
    count += end - begin;
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolTest, BackToBackDispatchesReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> count{0};
    pool.ParallelFor(0, 100, 3, [&](size_t begin, size_t end) {
      count += end - begin;
    });
    ASSERT_EQ(count.load(), 100u) << "round " << round;
  }
}

// EvenChunks partitions [0, n): one chunk without a pool, about four per
// lane with one, never below the minimum chunk (bar the last).
TEST(ThreadPoolTest, EvenChunksPartitionTheRange) {
  ThreadPool pool(4);
  EXPECT_EQ(EvenChunks(1000, nullptr, 10), (std::vector<size_t>{0, 1000}));
  EXPECT_EQ(EvenChunks(0, &pool, 10), (std::vector<size_t>{0, 0}));
  const std::vector<size_t> bounds = EvenChunks(1000, &pool, 10);
  EXPECT_EQ(bounds.size(), 17u);  // 16 chunks of 63, the last of 55.
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 1000u);
  EXPECT_EQ(EvenChunks(1000, &pool, 400), (std::vector<size_t>{0, 400, 800,
                                                               1000}));
}

// ForEachChunk runs every chunk once with its own bounds, and
// GatherIndices returns the kept indices ascending, on a pool or inline.
TEST(ThreadPoolTest, ChunkHelpersCoverEveryChunkAndGatherInOrder) {
  ThreadPool pool(4);
  const std::vector<size_t> bounds = {0, 3, 3, 10, 64, 65, 200};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<int> seen(bounds.size() - 1, 0);
    std::vector<int> hits(200, 0);
    ForEachChunk(p, bounds, [&](size_t c, size_t begin, size_t end) {
      EXPECT_EQ(begin, bounds[c]);
      EXPECT_EQ(end, bounds[c + 1]);
      ++seen[c];
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    EXPECT_EQ(seen, std::vector<int>(bounds.size() - 1, 1));
    EXPECT_EQ(hits, std::vector<int>(200, 1));
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i < 200; ++i) {
      if (i % 7 == 3) want.push_back(i);
    }
    EXPECT_EQ(GatherIndices<uint32_t>(p, bounds,
                                      [](size_t i) { return i % 7 == 3; }),
              want);
  }
}

}  // namespace
}  // namespace crowdrl
