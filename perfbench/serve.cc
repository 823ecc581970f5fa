// serve-async: one LabellingService multiplexing four paper-size campaigns
// (S12CP / S3CP alternating, 5 annotators and budget 10,000 each) with
// asynchronous truth inference on the service's single InferenceWorker.
//
// The main thread drives the scheduler pump (LabellingService::PumpOnce,
// parking on EventHub::WaitFor when a pass made no progress, as
// RunUntilComplete does). One client thread simulates every annotator of
// every campaign as a closed loop: an idle annotator polls RequestWork;
// once it holds an item it "thinks" for a seeded exponential time, then
// Pushes the completion and asks for more. Three threads in total: pump,
// client, inference worker.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "crowd/annotator.h"
#include "data/workloads.h"
#include "perfbench.h"
#include "serve/service.h"

namespace perfbench {

namespace {

using crowdrl::serve::Campaign;
using crowdrl::serve::CampaignOptions;
using crowdrl::serve::LabellingService;
using crowdrl::serve::ServiceOptions;
using crowdrl::serve::WorkItem;

constexpr int kCampaigns = 4;
constexpr int kTrajectories = 3;
constexpr int kAnnotators = 5;
constexpr double kBudget = 10000.0;
// Rounds per campaign (CrowdRlConfig::max_iterations): below the point
// where the budget runs out, so no work is cancelled for lack of budget.
constexpr size_t kRounds = 50;
constexpr double kMeanThinkUs = 300.0;
// Client poll period while every idle annotator's inbox is empty.
constexpr int64_t kPollNs = 100000;
constexpr int64_t kIdleWaitMicros = 2000;
constexpr int kMainTrack = 0;
constexpr int kClientTrack = 1;

struct CampaignInputs {
  std::string name;
  crowdrl::data::Dataset dataset;
  std::vector<crowdrl::crowd::Annotator> pool;
  uint64_t run_seed = 0;
};

/// Client-side state of one simulated annotator.
struct Annotator {
  Campaign* campaign = nullptr;
  int campaign_index = 0;
  int id = 0;
  std::mt19937_64 rng;
  bool busy = false;
  int64_t due_ns = 0;
  WorkItem item;
  int64_t idle_since_ns = 0;  ///< 0 = not waiting.
};

/// What the client thread measured; read after it joined.
struct ClientReport {
  std::vector<double> task_waits_ms;
  std::vector<double> request_work_us;  ///< Successful calls (traced only).
  std::vector<double> push_us;          ///< Traced only.
  std::vector<uint64_t> delivered = std::vector<uint64_t>(kCampaigns, 0);
  std::vector<uint64_t> pushed = std::vector<uint64_t>(kCampaigns, 0);
};

void RunClient(std::vector<Annotator>* annotators, bool timed,
               const std::atomic<bool>* stop, SpanRecorder* spans,
               ClientReport* report) {
  ScopedSpan root(spans, kClientTrack, "client");
  std::exponential_distribution<double> think(1.0 / kMeanThinkUs);
  while (!stop->load(std::memory_order_acquire)) {
    int64_t now = NowNs();
    int64_t next_event = now + kPollNs;
    for (Annotator& a : *annotators) {
      if (a.campaign->done()) {
        a.idle_since_ns = 0;  // Cut off by completion: not a sample.
        continue;
      }
      if (a.busy) {
        if (now < a.due_ns) {
          next_event = std::min(next_event, a.due_ns);
          continue;
        }
        const int64_t push_start = timed ? NowNs() : 0;
        a.campaign->ingest().Push(a.item);
        if (timed) {
          report->push_us.push_back(
              static_cast<double>(NowNs() - push_start) / 1e3);
        }
        ++report->pushed[static_cast<size_t>(a.campaign_index)];
        a.busy = false;
        now = NowNs();
      }
      const int64_t request_start = timed ? NowNs() : 0;
      std::optional<WorkItem> item = a.campaign->sessions().RequestWork(a.id);
      if (!item.has_value()) {
        if (a.idle_since_ns == 0) a.idle_since_ns = now;
        continue;
      }
      const int64_t got = NowNs();
      if (timed) {
        report->request_work_us.push_back(
            static_cast<double>(got - request_start) / 1e3);
      }
      if (a.idle_since_ns != 0) {
        report->task_waits_ms.push_back(MsBetween(a.idle_since_ns, got));
        a.idle_since_ns = 0;
      }
      ++report->delivered[static_cast<size_t>(a.campaign_index)];
      a.item = *item;
      a.busy = true;
      a.due_ns = got + static_cast<int64_t>(think(a.rng) * 1e3);
      next_event = std::min(next_event, a.due_ns);
    }
    const int64_t sleep_ns = next_event - NowNs();
    if (sleep_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
    }
  }
}

class ServeAsync : public Workload {
 public:
  explicit ServeAsync(const RunOptions& options) {
    for (int t = 0; t < kTrajectories; ++t) {
      seeds_.push_back(DeriveSeed(options.seed, 100 + t));
    }
  }

  std::string ConfigJson() const override {
    std::string seeds;
    for (uint64_t s : seeds_) {
      seeds += (seeds.empty() ? "[" : ", ") + std::to_string(s);
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"campaigns\": %d, \"datasets\": \"S12CP,S3CP "
                  "alternating\", \"objects\": \"2344,1898\", "
                  "\"annotators_per_campaign\": %d, \"budget\": %.1f, "
                  "\"max_iterations\": %zu, "
                  "\"synchronous_inference\": false, \"mean_think_us\": %.0f, "
                  "\"client_poll_us\": %lld, \"idle_wait_us\": %lld, "
                  "\"shared_threads\": 1, \"churn\": false, "
                  "\"trajectories\": %d, \"trajectory_seeds\": ",
                  kCampaigns, kAnnotators, kBudget, kRounds, kMeanThinkUs,
                  static_cast<long long>(kPollNs / 1000),
                  static_cast<long long>(kIdleWaitMicros), kTrajectories);
    return buf + seeds + "]}";
  }

  int threads() const override { return 3; }
  int trajectories() const override { return kTrajectories; }

  double MeasureSetup() override {
    const int64_t start = NowNs();
    std::vector<CampaignInputs> inputs = MakeInputs(seeds_[0]);
    auto service = MakeService(&inputs);
    return MsBetween(start, NowNs()) / 1e3;
  }

  EpisodeResult RunEpisode(int trajectory, SpanRecorder* spans) override;

 private:
  static std::vector<CampaignInputs> MakeInputs(uint64_t seed) {
    std::vector<CampaignInputs> inputs(kCampaigns);
    for (int c = 0; c < kCampaigns; ++c) {
      CampaignInputs& in = inputs[static_cast<size_t>(c)];
      const bool s12 = c % 2 == 0;
      crowdrl::data::SpeechOptions speech;
      speech.view = crowdrl::data::FeatureView::kConcatenated;
      speech.num_objects = s12 ? 2344 : 1898;
      speech.seed = DeriveSeed(seed, 10 + static_cast<uint64_t>(c));
      in.name = "c" + std::to_string(c) + (s12 ? "_S12CP" : "_S3CP");
      in.dataset = s12 ? crowdrl::data::MakeSpeech12(speech)
                       : crowdrl::data::MakeSpeech3(speech);
      in.pool = crowdrl::crowd::MakePool(crowdrl::crowd::PoolOfSize(
          kAnnotators, in.dataset.num_classes,
          DeriveSeed(seed, 20 + static_cast<uint64_t>(c))));
      in.run_seed = DeriveSeed(seed, 30 + static_cast<uint64_t>(c));
    }
    return inputs;
  }

  static std::unique_ptr<LabellingService> MakeService(
      std::vector<CampaignInputs>* inputs) {
    ServiceOptions options;
    options.shared_threads = 1;
    options.idle_wait_micros = kIdleWaitMicros;
    auto service = std::make_unique<LabellingService>(options);
    for (CampaignInputs& in : *inputs) {
      CampaignOptions campaign;
      campaign.name = in.name;
      campaign.synchronous_inference = false;
      campaign.config.max_iterations = kRounds;
      service->AddCampaign(campaign, &in.dataset, &in.pool, kBudget,
                           in.run_seed);
    }
    return service;
  }

  std::vector<uint64_t> seeds_;
};

EpisodeResult ServeAsync::RunEpisode(int trajectory, SpanRecorder* spans) {
  EpisodeResult out;
  out.deterministic = false;  // Async inference swaps race selection.
  const uint64_t seed = seeds_[static_cast<size_t>(trajectory)];
  const int64_t setup_start = NowNs();
  std::vector<CampaignInputs> inputs = MakeInputs(seed);
  std::unique_ptr<LabellingService> service = MakeService(&inputs);
  const int64_t run_start = NowNs();
  out.setup_s = MsBetween(setup_start, run_start) / 1e3;

  std::vector<Annotator> annotators;
  for (int c = 0; c < kCampaigns; ++c) {
    for (int j = 0; j < kAnnotators; ++j) {
      Annotator a;
      a.campaign = &service->campaign(static_cast<size_t>(c));
      a.campaign_index = c;
      a.id = j;
      a.rng.seed(DeriveSeed(seed, 1000 + static_cast<uint64_t>(c) * 64 +
                                       static_cast<uint64_t>(j)));
      annotators.push_back(std::move(a));
    }
  }

  bool started = false;
  bool completed = false;
  ClientReport client;
  {
    ScopedSpan episode(spans, kMainTrack, "episode");
    {
      ScopedSpan span(spans, kMainTrack, "core.bootstrap");
      started = service->StartAll().ok();
    }
    for (size_t c = 0; c < service->num_campaigns(); ++c) {
      service->campaign(c).sessions().ConnectAll();
    }
    std::atomic<bool> stop{false};
    std::thread client_thread(RunClient, &annotators, spans->enabled(),
                              &stop, spans, &client);
    while (started) {
      bool progress = false;
      {
        ScopedSpan span(spans, kMainTrack, "serve.pump_busy");
        progress = service->PumpOnce();
      }
      bool all_done = true;
      for (size_t c = 0; c < service->num_campaigns() && all_done; ++c) {
        all_done = service->campaign(c).done();
      }
      if (all_done) {
        completed = true;
        break;
      }
      if (!progress) {
        ScopedSpan span(spans, kMainTrack, "serve.pump_idle");
        service->hub().WaitFor(kIdleWaitMicros);
      }
    }
    stop.store(true, std::memory_order_release);
    client_thread.join();
  }
  out.run_s = MsBetween(run_start, NowNs()) / 1e3;
  out.task_waits_ms = client.task_waits_ms;

  size_t objects = 0;
  size_t right = 0;
  uint64_t committed_total = 0;
  uint64_t abandoned_total = 0;
  uint64_t dispatched_total = 0;
  bool all_complete = completed;
  bool conserved = true;
  bool labelled = true;
  bool within_budget = true;
  double ti_stall_ms = 0.0;
  double ti_swaps = 0.0;
  double rounds = 0.0;
  double iterations = 0.0;
  double rows = 0.0;
  double hits = 0.0;
  double lookups = 0.0;
  double pruned = 0.0;
  double selections = 0.0;
  double exact_rows = 0.0;
  double gate_fallbacks = 0.0;
  for (size_t c = 0; c < service->num_campaigns(); ++c) {
    Campaign& campaign = service->campaign(c);
    all_complete =
        all_complete && campaign.state() == Campaign::State::kComplete;
    if (campaign.state() != Campaign::State::kComplete) continue;
    const auto& log = campaign.assignment_log();
    uint64_t executed = 0;
    for (const auto& record : log) executed += record.executed ? 1 : 0;
    const uint64_t committed = campaign.answers_committed();
    const uint64_t abandoned = campaign.abandoned_items();
    const uint64_t dispatched = log.size();
    // Every dispatched item reached a client or was abandoned from its
    // inbox; every commit is an executed pair the client delivered.
    conserved = conserved && client.delivered[c] + abandoned == dispatched &&
                committed == executed && committed <= client.pushed[c] &&
                client.pushed[c] == client.delivered[c];
    committed_total += committed;
    abandoned_total += abandoned;
    dispatched_total += dispatched;

    const crowdrl::core::LabellingResult& result = campaign.result();
    const std::vector<int>& truths = inputs[c].dataset.truths;
    labelled = labelled && result.labels.size() == truths.size();
    for (size_t i = 0; labelled && i < truths.size(); ++i) {
      labelled = result.sources[i] != crowdrl::core::LabelSource::kNone;
      if (result.labels[i] == truths[i]) ++right;
    }
    objects += truths.size();
    within_budget = within_budget && result.budget_spent <= kBudget + 1e-9;

    ti_stall_ms += static_cast<double>(campaign.ti_stall_ns()) / 1e6;
    ti_swaps += static_cast<double>(campaign.ti_swaps());
    rounds += static_cast<double>(campaign.rounds_completed());
    const crowdrl::core::RunState& rs = campaign.run_state();
    iterations += static_cast<double>(rs.iterations);
    rows += static_cast<double>(rs.agent.rows_featurized());
    const auto& cache = rs.agent.score_cache().cumulative_stats();
    hits += static_cast<double>(cache.block_hits);
    lookups += static_cast<double>(cache.block_hits + cache.block_misses);
    const auto& prune = rs.agent.shortlist_pruner().stats();
    pruned += static_cast<double>(prune.pruned_iterations);
    selections +=
        static_cast<double>(prune.pruned_iterations + prune.full_iterations);
    exact_rows += static_cast<double>(prune.exact_rows);
    gate_fallbacks += static_cast<double>(prune.gate_fallbacks);
  }
  out.checks.emplace_back("every campaign reached kComplete", all_complete);
  out.checks.emplace_back(
      "delivered + abandoned == dispatched, committed == executed",
      conserved);
  out.checks.emplace_back("every object labelled", labelled);
  out.checks.emplace_back("spend <= budget in every campaign",
                          within_budget);
  out.answers = static_cast<double>(committed_total);
  out.accuracy =
      objects > 0 ? static_cast<double>(right) / static_cast<double>(objects)
                  : 0.0;
  out.attempted = dispatched_total;
  out.failed = dispatched_total - std::min(dispatched_total, committed_total);

  auto& L = out.layers;
  L["core.iterations"] = {iterations, "count"};
  L["rl.rows_featurized"] = {rows, "count"};
  L["rl.score_cache.hit_rate"] = {lookups > 0 ? hits / lookups : 0.0,
                                  "fraction"};
  L["rl.prune.served_fraction"] = {
      selections > 0 ? pruned / selections : 0.0, "fraction"};
  L["rl.prune.exact_rows"] = {exact_rows, "count"};
  L["rl.prune.gate_fallbacks"] = {gate_fallbacks, "count"};
  L["serve.ti_stall_ms"] = {ti_stall_ms, "ms"};
  L["serve.ti_swaps"] = {ti_swaps, "count"};
  L["serve.rounds"] = {rounds, "count"};
  L["serve.answers"] = {static_cast<double>(committed_total), "count"};
  L["serve.abandoned"] = {static_cast<double>(abandoned_total), "count"};
  L["serve.task_wait_samples"] = {
      static_cast<double>(client.task_waits_ms.size()), "count"};
  if (spans->enabled()) {
    const auto agg = spans->Aggregates();
    auto total = [&agg](const char* name) {
      auto it = agg.find(name);
      return it == agg.end() ? 0.0 : it->second.total_ms;
    };
    const double wall_ms = total("episode");
    L["core.bootstrap_ms"] = {total("core.bootstrap"), "ms"};
    L["serve.pump_busy_ms"] = {total("serve.pump_busy"), "ms"};
    L["serve.pump_idle_ms"] = {total("serve.pump_idle"), "ms"};
    L["serve.pump_busy_fraction"] = {
        wall_ms > 0 ? total("serve.pump_busy") / wall_ms : 0.0, "fraction"};
    L["serve.request_work_us.p50"] = {Quantile(client.request_work_us, 0.5),
                                      "us"};
    L["serve.request_work_us.p99"] = {
        Quantile(client.request_work_us, 0.99), "us"};
    L["serve.push_us.p50"] = {Quantile(client.push_us, 0.5), "us"};
    L["serve.push_us.p99"] = {Quantile(client.push_us, 0.99), "us"};
    L["trace.unattributed_fraction"] = {
        wall_ms > 0 ? agg.at("episode").self_ms / wall_ms : 0.0, "fraction"};
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeServeAsync(const RunOptions& options) {
  return std::make_unique<ServeAsync>(options);
}

}  // namespace perfbench
