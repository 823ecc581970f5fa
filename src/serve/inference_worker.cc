#include "serve/inference_worker.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace crowdrl::serve {

size_t InferenceWorker::DefaultMaxLanes() {
  // hardware_concurrency() returns 0 when it cannot tell.
  const size_t hardware = std::thread::hardware_concurrency();
  return hardware > 1 ? hardware - 1 : 1;
}

InferenceWorker::InferenceWorker(size_t max_lanes)
    : max_lanes_(std::max<size_t>(1, max_lanes)) {}

size_t InferenceWorker::lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

std::future<void> InferenceWorker::Submit(std::function<void()> fn) {
  Job job;
  job.fn = std::move(fn);
  std::future<void> future = job.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    // Every idle lane takes one queued job; start a lane only for a job
    // that no idle lane will take. A new lane counts as idle until it
    // takes one.
    if (queue_.size() > idle_ && lanes_.size() < max_lanes_) {
      ++idle_;
      lanes_.emplace_back([this] { Loop(); });
    }
  }
  cv_.notify_one();
  return future;
}

void InferenceWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (lanes_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  // Lanes never touch lanes_, and Submit and Stop share one caller, so
  // the vector is stable while the lanes drain the queue.
  for (std::thread& lane : lanes_) lane.join();
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.clear();
  stopping_ = false;
}

void InferenceWorker::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {  // stopping_ with a drained queue.
      --idle_;
      return;
    }
    Job job = std::move(queue_.front());
    queue_.pop_front();
    --idle_;
    lock.unlock();
    std::exception_ptr error;
    try {
      job.fn();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    // Free before the future resolves: a caller that waits on it and then
    // submits its next job finds this lane idle instead of starting
    // another, so lanes never outnumber the jobs a caller keeps in flight.
    ++idle_;
    lock.unlock();
    if (error) {
      job.done.set_exception(error);
    } else {
      job.done.set_value();
    }
    lock.lock();
  }
}

}  // namespace crowdrl::serve
