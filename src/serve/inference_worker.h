#ifndef CROWDRL_SERVE_INFERENCE_WORKER_H_
#define CROWDRL_SERVE_INFERENCE_WORKER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace crowdrl::serve {

/// \brief A FIFO executor for truth-inference jobs on up to `max_lanes`
/// background threads ("lanes").
///
/// Asynchronous TI is an EM round, phi's retraining and its class
/// posteriors over a copy-on-write snapshot (core::TruthInferenceJob);
/// a lane only ever touches the job it was handed, so no locks are shared
/// with the campaigns it serves. One worker serves every campaign of a
/// LabellingService. TI is the long pole of a round and the campaigns'
/// jobs are independent, so jobs of different campaigns run side by side
/// on separate lanes while the pump keeps serving. Jobs must not dispatch
/// on shared ThreadPools (see util/thread_pool.h); snapshot jobs run
/// single-threaded for exactly that reason.
///
/// Lanes start on demand: a Submit starts a new lane only when the queued
/// jobs outnumber the idle lanes and the cap is not reached. A lane frees
/// itself before its job's future resolves, so the lane count never
/// exceeds the most jobs whose futures were unresolved at once. A campaign
/// waits on its job's future before it submits the next, so a service
/// never runs more lanes than it has asynchronous campaigns, and a service
/// with only synchronous campaigns starts none. Idle lanes wait for the
/// next job; jobs start in submission order. DESIGN.md §12 has the
/// measurements behind the default cap.
///
/// Submit and Stop are called from one thread (the service's pump).
class InferenceWorker {
 public:
  /// max(1, hardware threads - 1): the pump keeps one hardware thread.
  static size_t DefaultMaxLanes();

  explicit InferenceWorker(size_t max_lanes = DefaultMaxLanes());
  ~InferenceWorker() { Stop(); }

  InferenceWorker(const InferenceWorker&) = delete;
  InferenceWorker& operator=(const InferenceWorker&) = delete;

  /// Enqueues `fn` for the next free lane. The returned future resolves
  /// when the job finished; campaigns typically poll their own done flag
  /// (set inside `fn`) and use the future only for a blocking wait at
  /// terminal / shutdown.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs every queued job, then joins the lanes. Idempotent; a later
  /// Submit starts lanes again.
  void Stop();

  size_t max_lanes() const { return max_lanes_; }
  /// Lanes currently running (started and not yet joined by Stop).
  size_t lanes() const;

 private:
  void Loop();

  struct Job {
    std::function<void()> fn;
    std::promise<void> done;
  };

  const size_t max_lanes_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::vector<std::thread> lanes_;
  /// Lanes not running a job; each takes the next queued one.
  size_t idle_ = 0;
  bool stopping_ = false;
};

}  // namespace crowdrl::serve

#endif  // CROWDRL_SERVE_INFERENCE_WORKER_H_
