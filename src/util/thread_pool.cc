#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace crowdrl {

namespace {

// Registered eagerly (not lazily at first dispatch) so every metrics
// snapshot contains the threadpool keys even before the pool runs a job.
struct PoolMetrics {
  obs::Counter* dispatches;
  obs::Gauge* queue_depth;
  obs::Histogram* wait_ns;
  obs::Histogram* run_ns;

  PoolMetrics() {
    auto& registry = obs::MetricsRegistry::Get();
    dispatches = registry.GetCounter("crowdrl.threadpool.dispatches");
    queue_depth = registry.GetGauge("crowdrl.threadpool.queue_depth");
    wait_ns = registry.GetHistogram("crowdrl.threadpool.task_wait_ns");
    run_ns = registry.GetHistogram("crowdrl.threadpool.task_run_ns");
  }
};

PoolMetrics& Metrics() {
  static PoolMetrics* const metrics = new PoolMetrics();
  return *metrics;
}

[[maybe_unused]] const PoolMetrics& g_eager_pool_metrics = Metrics();

// Pool whose ParallelFor the current thread is executing a chunk of, if
// any. Lets a nested dispatch on the same pool detect itself and run
// inline instead of clobbering the in-flight `job_`/`generation_` state
// (which deadlocked: the outer job's workers would never be re-woken and
// the nested caller would wait on acks that never arrive).
thread_local const ThreadPool* tls_active_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  int spawn = std::max(0, threads - 1);
  workers_.reserve(static_cast<size_t>(spawn));
  for (int t = 0; t < spawn; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  size_t count = end - begin;
  if (workers_.empty() || count <= grain || tls_active_pool == this) {
    fn(begin, end);
    return;
  }
  // One dispatch at a time: `job_`, `acked_` and `generation_` describe a
  // single job. A second caller racing in (two lanes of another pool
  // dispatching here, or two threads sharing this pool) would overwrite
  // them, and one worker ack could then release both callers while the
  // worker still runs a job whose frame has returned. The loser runs its
  // whole range inline instead, as a same-pool nested call does; chunks
  // write outputs chosen by index, so results cannot change. A flag, not
  // a mutex: the owner itself may come back here through another pool's
  // loop body (A -> B -> A), and must then find the pool busy too.
  bool idle = false;
  if (!dispatching_.compare_exchange_strong(idle, true,
                                            std::memory_order_acquire)) {
    fn(begin, end);
    return;
  }

  // Chunk boundaries depend only on (begin, end, grain), never on thread
  // count or scheduling; workers claim chunks from a shared counter.
  size_t num_chunks = (count + grain - 1) / grain;
  std::atomic<size_t> next_chunk{0};

  // Instrumentation only reads the clock and bumps atomics — it cannot
  // change which chunk runs where or what fn computes, so the
  // determinism contract above is untouched. The enabled check is
  // hoisted out of the chunk loop.
  const bool observed = obs::Enabled();
  const uint64_t dispatch_ns = observed ? obs::NowNs() : 0;
  if (observed) {
    Metrics().dispatches->Inc();
    Metrics().queue_depth->Set(static_cast<double>(num_chunks));
  }

  std::function<void()> job = [&] {
    const ThreadPool* prev_pool = tls_active_pool;
    tls_active_pool = this;
    while (true) {
      size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      size_t chunk_begin = begin + c * grain;
      if (observed) {
        uint64_t start_ns = obs::NowNs();
        Metrics().wait_ns->Record(start_ns - dispatch_ns);
        fn(chunk_begin, std::min(end, chunk_begin + grain));
        Metrics().run_ns->Record(obs::NowNs() - start_ns);
      } else {
        fn(chunk_begin, std::min(end, chunk_begin + grain));
      }
    }
    tls_active_pool = prev_pool;
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    acked_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  job();  // The calling thread is a full lane.

  // `job` lives on this stack frame: wait until every worker has finished
  // with it (a worker that wakes late finds the chunk counter exhausted
  // and acks immediately).
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return acked_ == workers_.size(); });
  job_ = nullptr;
  if (observed) Metrics().queue_depth->Set(0.0);
  dispatching_.store(false, std::memory_order_release);
}

std::vector<size_t> EvenChunks(size_t n, const ThreadPool* pool,
                               size_t min_chunk) {
  constexpr size_t kChunksPerLane = 4;
  size_t chunk = n;
  if (pool != nullptr && pool->num_threads() > 1) {
    const size_t parts = static_cast<size_t>(pool->num_threads()) *
                         kChunksPerLane;
    chunk = std::max(std::max<size_t>(min_chunk, 1), (n + parts - 1) / parts);
  }
  std::vector<size_t> bounds{0};
  for (size_t at = chunk; at < n; at += chunk) bounds.push_back(at);
  bounds.push_back(n);
  return bounds;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::function<void()>* job = job_;
    lock.unlock();
    (*job)();
    lock.lock();
    if (++acked_ == workers_.size()) done_cv_.notify_all();
  }
}

}  // namespace crowdrl
