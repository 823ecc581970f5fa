// InferenceWorker: the on-demand lanes that run truth-inference jobs.
// Lanes overlap jobs, start only for a job no idle lane will take, never
// outnumber the cap or the jobs in flight, take jobs in submission order,
// and drain the queue on Stop. Campaigns keep at most one job in flight,
// so synchronous campaigns start no lane and asynchronous ones never
// start more lanes than there are campaigns.

#include "serve/inference_worker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/crowdrl.h"
#include "serve/campaign.h"

namespace crowdrl::serve {
namespace {

// Records which jobs started, in order, and lets the test wait for them.
class StartLog {
 public:
  void Started(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.push_back(id);
    cv_.notify_all();
  }
  void WaitFor(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return ids_.size() >= count; });
  }
  std::vector<int> ids() {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> ids_;
};

TEST(InferenceWorkerTest, DefaultCapLeavesOneHardwareThread) {
  const size_t hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(InferenceWorker::DefaultMaxLanes(),
            hardware > 1 ? hardware - 1 : 1);
  EXPECT_EQ(InferenceWorker().max_lanes(), InferenceWorker::DefaultMaxLanes());
  EXPECT_EQ(InferenceWorker(0).max_lanes(), 1u);
  EXPECT_EQ(InferenceWorker(3).max_lanes(), 3u);
}

// Each job waits for the other: they finish only if two lanes run them at
// once (one lane would deadlock).
TEST(InferenceWorkerTest, TwoLanesOverlapJobsThatWaitOnEachOther) {
  InferenceWorker worker(2);
  std::latch both(2);
  std::future<void> a = worker.Submit([&both] { both.arrive_and_wait(); });
  std::future<void> b = worker.Submit([&both] { both.arrive_and_wait(); });
  a.get();
  b.get();
  EXPECT_EQ(worker.lanes(), 2u);
}

TEST(InferenceWorkerTest, LanesNeverExceedTheCapOrTheJobsInFlight) {
  InferenceWorker worker(3);
  EXPECT_EQ(worker.lanes(), 0u);
  std::atomic<size_t> most_seen{0};
  auto note_lanes = [&worker, &most_seen] {
    const size_t now = worker.lanes();
    size_t seen = most_seen.load();
    while (now > seen && !most_seen.compare_exchange_weak(seen, now)) {
    }
  };

  // Two jobs in flight: two lanes.
  {
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    StartLog log;
    std::vector<std::future<void>> jobs;
    for (int i = 0; i < 2; ++i) {
      jobs.push_back(worker.Submit([&, i, open] {
        note_lanes();
        log.Started(i);
        open.wait();
      }));
    }
    log.WaitFor(2);
    EXPECT_EQ(worker.lanes(), 2u);
    gate.set_value();
    for (auto& job : jobs) job.get();
  }
  // One job at a time, each awaited before the next: a lane is free
  // before its job's future resolves, so no lane is added.
  for (int i = 0; i < 10; ++i) {
    worker.Submit(note_lanes).get();
    EXPECT_EQ(worker.lanes(), 2u);
  }
  // Five jobs in flight: the cap.
  {
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    StartLog log;
    std::vector<std::future<void>> jobs;
    for (int i = 0; i < 5; ++i) {
      jobs.push_back(worker.Submit([&, i, open] {
        note_lanes();
        log.Started(i);
        open.wait();
      }));
    }
    log.WaitFor(3);
    EXPECT_EQ(worker.lanes(), 3u);
    EXPECT_EQ(log.ids().size(), 3u);  // The other two wait in the queue.
    gate.set_value();
    for (auto& job : jobs) job.get();
  }
  EXPECT_EQ(worker.lanes(), 3u);
  EXPECT_LE(most_seen.load(), 3u);
}

TEST(InferenceWorkerTest, JobsStartInSubmissionOrder) {
  {
    InferenceWorker worker(1);
    StartLog log;
    std::vector<std::future<void>> jobs;
    for (int i = 0; i < 16; ++i) {
      jobs.push_back(worker.Submit([&log, i] { log.Started(i); }));
    }
    for (auto& job : jobs) job.get();
    std::vector<int> expected(16);
    for (int i = 0; i < 16; ++i) expected[static_cast<size_t>(i)] = i;
    EXPECT_EQ(log.ids(), expected);
  }
  // Two lanes, jobs released one at a time: whenever a lane frees, the
  // oldest queued job is the next to start.
  InferenceWorker worker(2);
  constexpr int kJobs = 6;
  std::vector<std::promise<void>> release(kJobs);
  StartLog log;
  std::vector<std::future<void>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    std::shared_future<void> open =
        release[static_cast<size_t>(i)].get_future().share();
    jobs.push_back(worker.Submit([&log, i, open] {
      log.Started(i);
      open.wait();
    }));
  }
  log.WaitFor(2);
  std::vector<int> first = log.ids();
  std::sort(first.begin(), first.end());
  EXPECT_EQ(first, (std::vector<int>{0, 1}));
  for (int i = 0; i + 2 < kJobs; ++i) {
    release[static_cast<size_t>(i)].set_value();
    log.WaitFor(static_cast<size_t>(i) + 3);
    EXPECT_EQ(log.ids()[static_cast<size_t>(i) + 2], i + 2);
  }
  release[kJobs - 2].set_value();
  release[kJobs - 1].set_value();
  for (auto& job : jobs) job.get();
}

TEST(InferenceWorkerTest, StopRunsEveryQueuedJobThenJoinsAndIsIdempotent) {
  InferenceWorker idle(2);
  idle.Stop();  // Never started: nothing to join.
  EXPECT_EQ(idle.lanes(), 0u);

  InferenceWorker worker(1);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> jobs;
  // The first job holds the only lane while the rest queue behind it.
  jobs.push_back(worker.Submit([&ran] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ++ran;
  }));
  for (int i = 0; i < 7; ++i) jobs.push_back(worker.Submit([&ran] { ++ran; }));
  worker.Stop();
  EXPECT_EQ(ran.load(), 8);
  for (auto& job : jobs) {
    EXPECT_EQ(job.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(worker.lanes(), 0u);
  worker.Stop();
  EXPECT_EQ(worker.lanes(), 0u);
}

TEST(InferenceWorkerTest, SubmitAfterStopStartsLanesAgain) {
  InferenceWorker worker(2);
  std::atomic<int> ran{0};
  worker.Submit([&ran] { ++ran; }).get();
  worker.Stop();
  EXPECT_EQ(worker.lanes(), 0u);
  worker.Submit([&ran] { ++ran; }).get();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(worker.lanes(), 1u);
  worker.Stop();
  EXPECT_EQ(worker.lanes(), 0u);
}

// --- Campaigns on an explicit worker. ---

constexpr double kBudget = 500.0;

struct Workload {
  data::Dataset dataset;
  std::vector<crowd::Annotator> pool;

  explicit Workload(uint64_t seed) {
    data::GaussianMixtureOptions options;
    options.num_objects = 120;
    options.view = {10, 2.6, 0.5};
    options.seed = seed;
    dataset = data::MakeGaussianMixture(options);
    crowd::PoolOptions pool_options;
    pool_options.num_workers = 3;
    pool_options.num_experts = 2;
    pool_options.seed = seed + 1;
    pool = crowd::MakePool(pool_options);
  }
};

// Pumps `campaigns` to completion with one echoing driver thread per
// campaign, like LabellingService::RunUntilComplete; returns the most
// lanes `worker` ran at any pump pass.
size_t RunCampaigns(const std::vector<Campaign*>& campaigns, EventHub* hub,
                    const InferenceWorker& worker) {
  for (Campaign* campaign : campaigns) {
    EXPECT_TRUE(campaign->Start().ok());
    campaign->sessions().ConnectAll();
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers;
  for (Campaign* campaign : campaigns) {
    drivers.emplace_back([campaign, &stop] {
      const int annotators = 5;
      while (!stop.load(std::memory_order_acquire)) {
        bool any = false;
        for (int j = 0; j < annotators; ++j) {
          std::optional<WorkItem> item = campaign->sessions().RequestWork(j);
          if (!item.has_value()) continue;
          campaign->ingest().Push(*item);
          any = true;
        }
        if (!any) std::this_thread::yield();
      }
    });
  }
  size_t most_lanes = 0;
  for (;;) {
    bool progress = false;
    bool all_done = true;
    for (Campaign* campaign : campaigns) {
      if (campaign->done()) continue;
      progress |= campaign->PumpStep();
      all_done = all_done && campaign->done();
    }
    most_lanes = std::max(most_lanes, worker.lanes());
    if (all_done) break;
    if (!progress) hub->WaitFor(2000);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& driver : drivers) driver.join();
  for (Campaign* campaign : campaigns) {
    EXPECT_EQ(campaign->state(), Campaign::State::kComplete)
        << campaign->status().ToString();
  }
  return most_lanes;
}

TEST(InferenceWorkerTest, SynchronousCampaignsStartNoLane) {
  Workload w(3);
  EventHub hub;
  InferenceWorker worker(4);
  CampaignOptions options;
  options.name = "worker_sync";
  options.config.max_iterations = 200;
  Campaign campaign(options, &w.dataset, &w.pool, kBudget, 11, &hub,
                    &worker);
  EXPECT_EQ(RunCampaigns({&campaign}, &hub, worker), 0u);
  EXPECT_EQ(worker.lanes(), 0u);
}

TEST(InferenceWorkerTest, AsyncCampaignsNeverRunMoreLanesThanCampaigns) {
  Workload wa(3);
  Workload wb(17);
  EventHub hub;
  InferenceWorker worker(4);
  std::vector<std::unique_ptr<Campaign>> campaigns;
  for (Workload* w : {&wa, &wb}) {
    CampaignOptions options;
    options.name = "worker_async_" + std::to_string(campaigns.size());
    options.config.max_iterations = 200;
    options.synchronous_inference = false;
    campaigns.push_back(std::make_unique<Campaign>(
        options, &w->dataset, &w->pool, kBudget,
        static_cast<uint64_t>(7 + campaigns.size()), &hub, &worker));
  }
  const size_t most_lanes =
      RunCampaigns({campaigns[0].get(), campaigns[1].get()}, &hub, worker);
  EXPECT_GE(most_lanes, 1u);
  EXPECT_LE(most_lanes, 2u);
  EXPECT_LE(worker.lanes(), 2u);
  for (const auto& campaign : campaigns) {
    EXPECT_GE(campaign->ti_swaps(), 1u);
  }
}

}  // namespace
}  // namespace crowdrl::serve
