// Event-driven labelling with the serve-mode scheduler: two campaigns
// multiplexed over one LabellingService, annotator clients on their own
// threads connecting / answering / dropping off, and truth inference
// running asynchronously on the background worker while selection keeps
// serving. Contrast with quickstart.cpp, which runs the same Algorithm 1
// as one synchronous batch loop.
//
//   ./build/examples/serving_run [objects] [budget]
//
// DESIGN.md §12 documents the architecture: the AnswerIngest queue, the
// sequence-ordered commit (why arrival order cannot change the result),
// the copy-on-write truth-inference snapshot and its revision barrier,
// and the campaign scheduler.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "crowd/annotator.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "io/flight_dump.h"
#include "obs/lifecycle.h"
#include "serve/service.h"

namespace {

using crowdrl::serve::Campaign;
using crowdrl::serve::CampaignOptions;
using crowdrl::serve::LabellingService;
using crowdrl::serve::ServiceOptions;
using crowdrl::serve::WorkItem;

struct CampaignWorkload {
  crowdrl::data::Dataset dataset;
  std::vector<crowdrl::crowd::Annotator> pool;
};

CampaignWorkload MakeWorkload(size_t objects, uint64_t seed) {
  CampaignWorkload w;
  crowdrl::data::GaussianMixtureOptions options;
  options.num_objects = objects;
  options.view = {10, 2.6, 0.5};
  options.seed = seed;
  w.dataset = crowdrl::data::MakeGaussianMixture(options);
  crowdrl::crowd::PoolOptions pool_options;
  pool_options.num_workers = 4;
  pool_options.num_experts = 1;
  pool_options.seed = seed + 1;
  w.pool = crowdrl::crowd::MakePool(pool_options);
  return w;
}

int Run(int argc, char** argv) {
  size_t objects = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 200;
  double budget = argc > 2 ? std::atof(argv[2]) : 700.0;

  CampaignWorkload first = MakeWorkload(objects, 3);
  CampaignWorkload second = MakeWorkload(objects / 2, 17);

  // One service = one scheduler pump + one background truth-inference
  // worker + (here) a 2-thread selection pool shared by both campaigns.
  // The full observability stack rides along (DESIGN.md §15): the
  // health watchdog monitors both campaigns, and a fatal signal or
  // campaign failure dumps the flight-recorder ring for post-mortem
  // decoding with bench/flight_decode.
  ServiceOptions service_options;
  service_options.shared_threads = 2;
  service_options.watchdog.enabled = true;
  service_options.flight_dump_on_failure = "serving_run_flight.dump";
  LabellingService service(service_options);
  crowdrl::io::InstallFatalSignalHook("serving_run_flight.dump");

  CampaignOptions options;
  options.name = "products";
  options.synchronous_inference = false;  // EM off the serving path.
  options.config.obs.enabled = true;
  options.config.obs.lifecycle = true;        // Stage latency breakdown.
  options.config.obs.flight_recorder = true;  // The black box.
  Campaign* products =
      service.AddCampaign(options, &first.dataset, &first.pool, budget, 11);
  options.name = "reviews";
  Campaign* reviews = service.AddCampaign(options, &second.dataset,
                                          &second.pool, budget / 2, 29);
  if (!service.StartAll().ok()) {
    std::fprintf(stderr, "service failed to start\n");
    return 1;
  }
  products->sessions().ConnectAll();
  reviews->sessions().ConnectAll();

  // Simulated annotator clients: each polls for work, "thinks" for a
  // random while, reports the answer back — and annotator 0 of the first
  // campaign periodically drops its connection with work still queued,
  // which the scheduler absorbs by abandoning the undelivered items.
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (Campaign* campaign : {products, reviews}) {
    const size_t pool_size =
        campaign == products ? first.pool.size() : second.pool.size();
    for (int j = 0; j < static_cast<int>(pool_size); ++j) {
      clients.emplace_back([&stop, campaign, j] {
        std::mt19937 rng(static_cast<unsigned>(j) + 1);
        std::uniform_int_distribution<int> think_us(50, 500);
        while (!stop.load(std::memory_order_acquire)) {
          std::optional<WorkItem> item = campaign->sessions().RequestWork(j);
          if (item.has_value()) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(think_us(rng)));
            campaign->ingest().Push(*item);
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
  }
  clients.emplace_back([&stop, products] {
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      products->sessions().Disconnect(0);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      products->sessions().Connect(0);
    }
  });

  if (!service.RunUntilComplete().ok()) {
    std::fprintf(stderr, "a campaign failed\n");
    return 1;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  struct Row {
    const char* name;
    Campaign* campaign;
    const CampaignWorkload* w;
  };
  for (const Row& row : {Row{"products", products, &first},
                         Row{"reviews", reviews, &second}}) {
    const crowdrl::core::LabellingResult& result = row.campaign->result();
    crowdrl::eval::Metrics metrics = crowdrl::eval::ComputeMetrics(
        row.w->dataset.truths, result.labels, row.w->dataset.num_classes);
    std::printf(
        "%-9s accuracy %.3f  answers %zu  rounds %zu  ti_swaps %zu  "
        "abandoned %zu  budget %.1f\n",
        row.name, metrics.accuracy, row.campaign->answers_committed(),
        row.campaign->rounds_completed(), row.campaign->ti_swaps(),
        row.campaign->abandoned_items(), result.budget_spent);
    // Where each answer spent its time, per stage transition (the
    // registry's lifecycle histograms, in nanoseconds).
    for (size_t s = 0; s < crowdrl::obs::kNumLifecycleStages; ++s) {
      const auto stage = static_cast<crowdrl::obs::LifecycleStage>(s);
      const crowdrl::obs::Histogram& latency = row.campaign->lifecycle(stage);
      std::printf("  %-18s p50 %8.1fus  p99 %8.1fus  max %8.1fus\n",
                  crowdrl::obs::LifecycleStageName(stage),
                  latency.Quantile(0.50) / 1e3, latency.Quantile(0.99) / 1e3,
                  static_cast<double>(latency.max()) / 1e3);
    }
  }

  // The watchdog's closing view of the service: every rule should have
  // cleared by completion (a finished campaign is not "stalled").
  const crowdrl::serve::ServiceHealth health = service.HealthSnapshot();
  size_t firing = 0;
  for (const auto& verdict : health.verdicts) firing += verdict.firing;
  std::printf("health: %zu campaigns, %zu rules monitored, %zu firing, "
              "%llu total firings\n",
              health.campaigns.size(), health.verdicts.size(), firing,
              static_cast<unsigned long long>(health.watchdog_firings));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
