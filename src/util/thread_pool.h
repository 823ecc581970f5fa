#ifndef CROWDRL_UTIL_THREAD_POOL_H_
#define CROWDRL_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace crowdrl {

/// \brief Fixed-size worker pool for data-parallel loops over index ranges.
///
/// The parallel substrate of the hot paths (candidate featurization, batch
/// Q-network inference, the joint-inference E-step). Design constraints:
///
///  * **Single-thread fallback.** Constructed with `threads <= 1`, the pool
///    spawns no workers and ParallelFor runs the body inline on the calling
///    thread — byte-for-byte the serial code path, so `threads = 1` (the
///    default everywhere) keeps every existing result bit-identical.
///  * **Determinism.** ParallelFor only divides [begin, end) into
///    grain-sized chunks and runs each chunk exactly once; chunks write
///    disjoint outputs chosen by index. Any per-element computation that is
///    deterministic serially therefore produces identical results at every
///    thread count. Order-sensitive reductions (e.g. floating-point sums)
///    must be done by storing per-element terms and reducing serially —
///    see JointInference::Infer for the pattern.
///  * **Blocking dispatch.** ParallelFor returns only after every chunk has
///    finished; the calling thread processes chunks alongside the workers,
///    so a pool of `threads` gives `threads`-way concurrency with
///    `threads - 1` spawned std::threads.
///
/// Nested dispatch: a loop body that calls ParallelFor back into the SAME
/// pool is detected (thread-local in-pool flag) and the nested call runs
/// its whole range inline on the calling lane — the workers are already
/// busy with the outer loop, so handing the nested job to them could only
/// deadlock, which is exactly what the pre-flag implementation did
/// (overwriting `job_`/`generation_` mid-dispatch). Nesting across two
/// *different* pools dispatches normally.
///
/// Concurrent callers: ParallelFor may be called from several threads at
/// once (e.g. every lane of one pool dispatching into a second, shared
/// pool). One caller at a time owns the workers; a caller that finds the
/// pool busy runs its whole range inline on its own thread, exactly like
/// a same-pool nested call, so it never waits on another caller's job.
/// That includes the owner re-entering through a second pool's loop body
/// (A -> B -> A on one thread), which the same-pool check cannot see.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (none when `threads <= 1`); the calling
  /// thread is the remaining lane.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency, including the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into chunks
  /// of at most `grain` indices. Blocks until every chunk has run. With no
  /// workers (threads <= 1) or a range no larger than one grain, the whole
  /// range runs inline as a single chunk.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  /// Set while one caller's job owns the workers; see "Concurrent
  /// callers" above.
  std::atomic<bool> dispatching_{false};
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  uint64_t generation_ = 0;
  size_t acked_ = 0;
  const std::function<void()>* job_ = nullptr;  // Valid while a job runs.
  std::vector<std::thread> workers_;
};

/// Runs `fn(chunk, chunk_begin, chunk_end)` once for every chunk
/// [bounds[c], bounds[c + 1]) of a caller-chosen partition: on `pool`'s
/// lanes, or inline in chunk order when `pool` is null. A chunk that
/// writes only outputs chosen by its own indices, plus per-chunk slots
/// the caller reduces in chunk order, gives the same result at every lane
/// count.
template <typename Fn>
void ForEachChunk(ThreadPool* pool, const std::vector<size_t>& bounds,
                  Fn&& fn) {
  if (bounds.size() < 2) return;
  const auto run = [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) fn(c, bounds[c], bounds[c + 1]);
  };
  if (pool == nullptr) {
    run(0, bounds.size() - 1);
  } else {
    pool->ParallelFor(0, bounds.size() - 1, 1, run);
  }
}

/// Bounds of [0, n) split into about four chunks per lane of `pool`, none
/// smaller than `min_chunk` (the last may be); one chunk without a pool.
/// Always starts with 0 and ends with n.
std::vector<size_t> EvenChunks(size_t n, const ThreadPool* pool,
                               size_t min_chunk);

/// The indices i in [bounds.front(), bounds.back()) with keep(i),
/// ascending: each chunk counts its own, then writes them at its prefix
/// offset.
template <typename Index, typename Keep>
std::vector<Index> GatherIndices(ThreadPool* pool,
                                 const std::vector<size_t>& bounds,
                                 Keep&& keep) {
  if (bounds.size() < 2) return {};
  std::vector<size_t> offsets(bounds.size(), 0);
  ForEachChunk(pool, bounds, [&](size_t c, size_t begin, size_t end) {
    size_t count = 0;
    for (size_t i = begin; i < end; ++i) count += keep(i) ? 1 : 0;
    offsets[c + 1] = count;
  });
  for (size_t c = 1; c < offsets.size(); ++c) offsets[c] += offsets[c - 1];
  std::vector<Index> out(offsets.back());
  ForEachChunk(pool, bounds, [&](size_t c, size_t begin, size_t end) {
    size_t at = offsets[c];
    for (size_t i = begin; i < end; ++i) {
      if (keep(i)) out[at++] = static_cast<Index>(i);
    }
  });
  return out;
}

}  // namespace crowdrl

#endif  // CROWDRL_UTIL_THREAD_POOL_H_
