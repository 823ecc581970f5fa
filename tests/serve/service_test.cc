// End-to-end tests of the LabellingService scheduler: multi-campaign
// multiplexing over a shared selection pool, asynchronous truth
// inference, annotator churn (disconnect / reconnect with work in
// flight), graceful drain into the batch checkpoint-resume path, and the
// flush-on-completion metrics contract.

#include "serve/service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/crowdrl.h"
#include "obs/trace.h"
#include "tests/testing/mini_json.h"

namespace crowdrl::serve {
namespace {

namespace fs = std::filesystem;

constexpr double kBudget = 500.0;

struct Workload {
  data::Dataset dataset;
  std::vector<crowd::Annotator> pool;

  explicit Workload(size_t objects = 150, uint64_t seed = 3) {
    data::GaussianMixtureOptions options;
    options.num_objects = objects;
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

core::CrowdRlConfig TestConfig() {
  core::CrowdRlConfig config;
  config.max_iterations = 200;
  return config;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "crowdrl_serve_test_" + name +
                    "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Spawns one driver thread per annotator of `campaign` that polls
// RequestWork and echoes completions into the ingest queue until `stop`.
std::vector<std::thread> StartDrivers(Campaign* campaign, size_t pool_size,
                                      std::atomic<bool>* stop) {
  std::vector<std::thread> drivers;
  drivers.reserve(pool_size);
  for (int j = 0; j < static_cast<int>(pool_size); ++j) {
    drivers.emplace_back([campaign, stop, j] {
      while (!stop->load(std::memory_order_acquire)) {
        std::optional<WorkItem> item = campaign->sessions().RequestWork(j);
        if (item.has_value()) {
          campaign->ingest().Push(*item);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  return drivers;
}

void ExpectCompleteAndLabelled(const Campaign& campaign,
                               const Workload& w) {
  ASSERT_EQ(campaign.state(), Campaign::State::kComplete)
      << campaign.status().ToString();
  const core::LabellingResult& result = campaign.result();
  ASSERT_EQ(result.labels.size(), w.dataset.num_objects());
  for (size_t i = 0; i < result.labels.size(); ++i) {
    EXPECT_GE(result.labels[i], 0);
    EXPECT_NE(result.sources[i], core::LabelSource::kNone);
  }
  EXPECT_GT(result.human_answers, 0u);
  EXPECT_LE(result.budget_spent, kBudget + 1e-9);
}

// Two campaigns over a shared 4-thread selection pool, driven by real
// annotator threads. Each must finish bit-identical to its own batch run
// at threads=1: the scheduler interleaving, the shared pool, and arrival
// races are all invisible to the result.
TEST(LabellingServiceTest, MultiCampaignSharedPoolMatchesBatch) {
  Workload wa(150, 3);
  Workload wb(120, 17);

  core::LabellingResult batch_a, batch_b;
  std::vector<core::AssignmentRecord> log_a, log_b;
  {
    core::CrowdRlFramework framework(TestConfig());
    ASSERT_TRUE(framework.Run(wa.dataset, wa.pool, kBudget, 11, &batch_a).ok());
    log_a = framework.last_assignment_log();
  }
  {
    core::CrowdRlFramework framework(TestConfig());
    ASSERT_TRUE(framework.Run(wb.dataset, wb.pool, kBudget, 29, &batch_b).ok());
    log_b = framework.last_assignment_log();
  }

  ServiceOptions service_options;
  service_options.shared_threads = 4;
  LabellingService service(service_options);
  CampaignOptions options_a;
  options_a.name = "alpha";
  options_a.config = TestConfig();
  CampaignOptions options_b;
  options_b.name = "beta";
  options_b.config = TestConfig();
  Campaign* a =
      service.AddCampaign(options_a, &wa.dataset, &wa.pool, kBudget, 11);
  Campaign* b =
      service.AddCampaign(options_b, &wb.dataset, &wb.pool, kBudget, 29);
  ASSERT_TRUE(service.StartAll().ok());
  a->sessions().ConnectAll();
  b->sessions().ConnectAll();

  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers = StartDrivers(a, wa.pool.size(), &stop);
  for (std::thread& t : StartDrivers(b, wb.pool.size(), &stop)) {
    drivers.push_back(std::move(t));
  }
  ASSERT_TRUE(service.RunUntilComplete().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : drivers) t.join();

  ExpectCompleteAndLabelled(*a, wa);
  ExpectCompleteAndLabelled(*b, wb);
  EXPECT_EQ(a->result().labels, batch_a.labels);
  EXPECT_EQ(a->result().budget_spent, batch_a.budget_spent);
  EXPECT_EQ(a->result().final_log_likelihood, batch_a.final_log_likelihood);
  EXPECT_EQ(a->assignment_log(), log_a);
  EXPECT_EQ(b->result().labels, batch_b.labels);
  EXPECT_EQ(b->result().budget_spent, batch_b.budget_spent);
  EXPECT_EQ(b->result().final_log_likelihood, batch_b.final_log_likelihood);
  EXPECT_EQ(b->assignment_log(), log_b);
}

// Asynchronous truth inference: EM runs on background snapshots while the
// pump keeps serving; the campaign still terminates with every object
// labelled and at least one revision swap applied.
TEST(LabellingServiceTest, AsyncInferenceCampaignCompletes) {
  Workload w;
  LabellingService service;
  CampaignOptions options;
  options.name = "async";
  options.config = TestConfig();
  options.synchronous_inference = false;
  options.max_unobserved_rounds = 2;
  Campaign* campaign =
      service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 7);
  ASSERT_TRUE(service.StartAll().ok());
  campaign->sessions().ConnectAll();

  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers =
      StartDrivers(campaign, w.pool.size(), &stop);
  ASSERT_TRUE(service.RunUntilComplete().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : drivers) t.join();

  ExpectCompleteAndLabelled(*campaign, w);
  EXPECT_GT(campaign->rounds_completed(), 0u);
  EXPECT_GE(campaign->ti_swaps(), 1u);
}

// The pump's truth-inference and observe phases run under their own
// spans (snapshot, apply, observe with DQN training inside) and the TI
// lane under serve.inference_job, so a trace of an asynchronous campaign
// splits the pump's time.
TEST(LabellingServiceTest, AsyncCampaignTraceSplitsThePump) {
  Workload w;
  obs::TraceRecorder::Get().Clear();
  LabellingService service;
  CampaignOptions options;
  options.name = "traced";
  options.config = TestConfig();
  options.config.obs.enabled = true;
  options.config.obs.tracing = true;
  options.synchronous_inference = false;
  Campaign* campaign =
      service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 7);
  ASSERT_TRUE(service.StartAll().ok());
  campaign->sessions().ConnectAll();

  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers =
      StartDrivers(campaign, w.pool.size(), &stop);
  ASSERT_TRUE(service.RunUntilComplete().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : drivers) t.join();
  ASSERT_TRUE(service.Shutdown().ok());
  obs::SetTracing(false);
  obs::SetEnabled(false);
  ExpectCompleteAndLabelled(*campaign, w);
  EXPECT_GE(campaign->ti_swaps(), 1u);

  const std::string path = FreshDir("trace") + "/trace.json";
  ASSERT_TRUE(obs::TraceRecorder::Get().WriteChromeTrace(path));
  obs::TraceRecorder::Get().Clear();
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  crowdrl::testing::JsonValue trace;
  ASSERT_TRUE(crowdrl::testing::MiniJsonParser::Parse(text.str(), &trace));
  std::set<std::string> names;
  for (const auto& event : trace["traceEvents"].array) {
    names.insert(event["name"].str);
  }
  for (const char* name : {"serve.ti_snapshot", "serve.inference_job",
                           "serve.ti_apply", "serve.observe"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

// Annotator churn with work in flight: the first rounds are dispatched
// and then every annotator disconnects, abandoning the undelivered
// inboxes; the pool reconnects and the campaign still runs to completion.
TEST(LabellingServiceTest, ChurnAbandonsInFlightWorkAndRecovers) {
  Workload w;
  LabellingService service;
  CampaignOptions options;
  options.name = "churn";
  options.config = TestConfig();
  Campaign* campaign =
      service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 5);
  ASSERT_TRUE(service.StartAll().ok());
  campaign->sessions().ConnectAll();

  size_t idle_passes = 0;
  size_t total_passes = 0;
  while (!campaign->done()) {
    ASSERT_LT(++total_passes, 500000u) << "service pump wedged";
    bool progress = service.PumpOnce();
    bool served = false;
    if (campaign->rounds_completed() < 3) {
      // Churn phase: right after each dispatch, every session vanishes
      // with its inbox undelivered and reconnects empty. The pump
      // completes these rounds from abandons alone (nothing executed)
      // and evicts the gone annotators' shortlist entries.
      for (int j = 0; j < static_cast<int>(w.pool.size()); ++j) {
        campaign->sessions().Disconnect(j);
      }
      campaign->sessions().ConnectAll();
      served = true;  // Churn is itself the progress; total_passes guards.
    } else {
      for (int j = 0; j < static_cast<int>(w.pool.size()); ++j) {
        while (std::optional<WorkItem> item =
                   campaign->sessions().RequestWork(j)) {
          campaign->ingest().Push(*item);
          served = true;
        }
      }
    }
    idle_passes = (progress || served) ? 0 : idle_passes + 1;
    if (idle_passes >= 10000u) {
      ADD_FAILURE() << "service pump wedged";
      break;
    }
  }

  ExpectCompleteAndLabelled(*campaign, w);
  EXPECT_GT(campaign->abandoned_items(), 0u);
}

// The planned pair is what commits, so a completion that names another
// (object, annotator) under a dispatched seq — someone else's work, or a
// forged echo — is dropped and counted. The seq stays open, its genuine
// completion commits it, and the run ends bit-identical to batch.
TEST(LabellingServiceTest, MismatchedCompletionIsRejectedAndTheGenuineCommits) {
  Workload w;
  core::LabellingResult batch;
  std::vector<core::AssignmentRecord> batch_log;
  {
    core::CrowdRlFramework framework(TestConfig());
    ASSERT_TRUE(framework.Run(w.dataset, w.pool, kBudget, 13, &batch).ok());
    batch_log = framework.last_assignment_log();
  }

  LabellingService service;
  CampaignOptions options;
  options.name = "mismatch";
  options.config = TestConfig();
  Campaign* campaign =
      service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 13);
  ASSERT_TRUE(service.StartAll().ok());
  campaign->sessions().ConnectAll();
  service.PumpOnce();  // Plans and dispatches the first round.

  std::vector<WorkItem> work;
  for (int j = 0; j < static_cast<int>(w.pool.size()); ++j) {
    while (std::optional<WorkItem> item =
               campaign->sessions().RequestWork(j)) {
      work.push_back(*item);
    }
  }
  ASSERT_FALSE(work.empty());
  const WorkItem head = *std::min_element(
      work.begin(), work.end(),
      [](const WorkItem& a, const WorkItem& b) { return a.seq < b.seq; });
  WorkItem other_annotator = head;
  other_annotator.annotator =
      (head.annotator + 1) % static_cast<int>(w.pool.size());
  WorkItem other_object = head;
  other_object.object =
      (head.object + 1) % static_cast<int>(w.dataset.num_objects());
  campaign->ingest().Push(other_annotator);
  campaign->ingest().Push(other_object);
  service.PumpOnce();
  EXPECT_EQ(campaign->rejected_answers(), 2u);
  EXPECT_EQ(campaign->answers_committed(), 0u);  // The head is still open.

  campaign->ingest().Push(head);
  service.PumpOnce();
  EXPECT_EQ(campaign->answers_committed(), 1u);

  for (const WorkItem& item : work) {
    if (item.seq != head.seq) campaign->ingest().Push(item);
  }
  size_t idle_passes = 0;
  while (!campaign->done()) {
    bool progress = service.PumpOnce();
    for (int j = 0; j < static_cast<int>(w.pool.size()); ++j) {
      while (std::optional<WorkItem> item =
                 campaign->sessions().RequestWork(j)) {
        campaign->ingest().Push(*item);
        progress = true;
      }
    }
    idle_passes = progress ? 0 : idle_passes + 1;
    ASSERT_LT(idle_passes, 10000u) << "service pump wedged";
  }
  ExpectCompleteAndLabelled(*campaign, w);
  EXPECT_EQ(campaign->rejected_answers(), 2u);
  EXPECT_EQ(campaign->result().labels, batch.labels);
  EXPECT_EQ(campaign->assignment_log(), batch_log);
}

// Graceful drain: Shutdown() mid-run finishes the open round from what
// arrived, writes a final checkpoint, and a batch framework with
// config.resume picks the run up and completes it.
TEST(LabellingServiceTest, DrainedCampaignResumesThroughBatchCheckpoint) {
  Workload w;
  std::string dir = FreshDir("drain");
  core::CrowdRlConfig config = TestConfig();
  config.checkpoint_dir = dir;

  {
    LabellingService service;
    CampaignOptions options;
    options.name = "drain";
    options.config = config;
    Campaign* campaign =
        service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 13);
    ASSERT_TRUE(service.StartAll().ok());
    campaign->sessions().ConnectAll();

    size_t idle_passes = 0;
    while (campaign->rounds_completed() < 2 && !campaign->done()) {
      bool progress = service.PumpOnce();
      bool served = false;
      for (int j = 0; j < static_cast<int>(w.pool.size()); ++j) {
        while (std::optional<WorkItem> item =
                   campaign->sessions().RequestWork(j)) {
          campaign->ingest().Push(*item);
          served = true;
        }
      }
      idle_passes = (progress || served) ? 0 : idle_passes + 1;
      ASSERT_LT(idle_passes, 10000u) << "service pump wedged";
    }
    ASSERT_FALSE(campaign->done());
    ASSERT_TRUE(service.Shutdown().ok());
    EXPECT_EQ(campaign->state(), Campaign::State::kStopped);
  }

  bool have_checkpoint = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    have_checkpoint = true;
    break;
  }
  EXPECT_TRUE(have_checkpoint) << "drain did not write a checkpoint";

  config.resume = true;
  core::CrowdRlFramework framework(config);
  core::LabellingResult result;
  ASSERT_TRUE(framework.Run(w.dataset, w.pool, kBudget, 13, &result).ok());
  ASSERT_EQ(result.labels.size(), w.dataset.num_objects());
  for (size_t i = 0; i < result.labels.size(); ++i) {
    EXPECT_NE(result.sources[i], core::LabelSource::kNone);
  }
  fs::remove_all(dir);
}

// Same drain contract for an asynchronous-inference campaign: the
// unobserved-round backlog is aligned back to the batch-compatible
// pending-reward form before the checkpoint is written.
TEST(LabellingServiceTest, AsyncDrainedCampaignResumesThroughBatch) {
  Workload w;
  std::string dir = FreshDir("async_drain");
  core::CrowdRlConfig config = TestConfig();
  config.checkpoint_dir = dir;

  {
    LabellingService service;
    CampaignOptions options;
    options.name = "async_drain";
    options.config = config;
    options.synchronous_inference = false;
    Campaign* campaign =
        service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 19);
    ASSERT_TRUE(service.StartAll().ok());
    campaign->sessions().ConnectAll();

    std::atomic<bool> stop{false};
    std::vector<std::thread> drivers =
        StartDrivers(campaign, w.pool.size(), &stop);
    // Let a few rounds through, then shut down mid-run.
    size_t waits = 0;
    while (campaign->rounds_completed() < 3 && !campaign->done()) {
      if (!service.PumpOnce()) service.hub().WaitFor(500);
      ASSERT_LT(++waits, 200000u) << "service pump wedged";
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : drivers) t.join();
    ASSERT_TRUE(service.Shutdown().ok());
    EXPECT_TRUE(campaign->done());
  }

  config.resume = true;
  core::CrowdRlFramework framework(config);
  core::LabellingResult result;
  ASSERT_TRUE(framework.Run(w.dataset, w.pool, kBudget, 19, &result).ok());
  ASSERT_EQ(result.labels.size(), w.dataset.num_objects());
  fs::remove_all(dir);
}

// Flush-on-completion: the per-round metrics JSONL ends exactly at the
// final round, with the per-campaign serve counters present.
TEST(LabellingServiceTest, MetricsSinkFlushedOnCompletion) {
  Workload w;
  std::string dir = FreshDir("metrics");
  std::string metrics_path = dir + "/serve_metrics.jsonl";
  core::CrowdRlConfig config = TestConfig();
  config.obs.enabled = true;
  config.obs.metrics_jsonl_path = metrics_path;

  LabellingService service;
  CampaignOptions options;
  options.name = "metered";
  options.config = config;
  Campaign* campaign =
      service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 23);
  ASSERT_TRUE(service.StartAll().ok());
  campaign->sessions().ConnectAll();

  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers =
      StartDrivers(campaign, w.pool.size(), &stop);
  ASSERT_TRUE(service.RunUntilComplete().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : drivers) t.join();
  ExpectCompleteAndLabelled(*campaign, w);

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "metrics sink was not written";
  std::stringstream contents;
  contents << in.rdbuf();
  std::string text = contents.str();
  EXPECT_FALSE(text.empty());
  EXPECT_NE(text.find("crowdrl.serve.metered.answers"), std::string::npos);
  EXPECT_NE(text.find("crowdrl.serve.metered.rounds"), std::string::npos);
  fs::remove_all(dir);
}

// A drained (not completed) campaign must also leave a trustworthy
// metrics trail: Drain writes one final snapshot record, so the last
// JSONL line reflects the post-drain counters — answers actually
// committed, rounds actually finished — not the last *round* boundary.
TEST(LabellingServiceTest, DrainWritesFinalMetricsRecord) {
  Workload w;
  std::string dir = FreshDir("drain_metrics");
  std::string metrics_path = dir + "/drain_metrics.jsonl";
  core::CrowdRlConfig config = TestConfig();
  config.checkpoint_dir = dir;
  config.obs.enabled = true;
  config.obs.metrics_jsonl_path = metrics_path;

  size_t answers_at_drain = 0;
  size_t rounds_at_drain = 0;
  {
    LabellingService service;
    CampaignOptions options;
    options.name = "drainmet";
    options.config = config;
    Campaign* campaign =
        service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 29);
    ASSERT_TRUE(service.StartAll().ok());
    campaign->sessions().ConnectAll();

    size_t idle_passes = 0;
    while (campaign->rounds_completed() < 2 && !campaign->done()) {
      bool progress = service.PumpOnce();
      bool served = false;
      for (int j = 0; j < static_cast<int>(w.pool.size()); ++j) {
        while (std::optional<WorkItem> item =
                   campaign->sessions().RequestWork(j)) {
          campaign->ingest().Push(*item);
          served = true;
        }
      }
      idle_passes = (progress || served) ? 0 : idle_passes + 1;
      ASSERT_LT(idle_passes, 10000u) << "service pump wedged";
    }
    ASSERT_FALSE(campaign->done());
    ASSERT_TRUE(service.Shutdown().ok());
    EXPECT_EQ(campaign->state(), Campaign::State::kStopped);
    answers_at_drain = campaign->answers_committed();
    rounds_at_drain = campaign->rounds_completed();
  }
  ASSERT_GT(answers_at_drain, 0u);

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "metrics sink was not written";
  std::string line;
  std::string last;
  size_t records = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      last = line;
      ++records;
    }
  }
  ASSERT_GT(records, 0u);
  crowdrl::testing::JsonValue root;
  ASSERT_TRUE(crowdrl::testing::MiniJsonParser::Parse(last, &root)) << last;
  // Drain committed what had already arrived for the open round, so the
  // final record must carry the post-drain totals.
  EXPECT_EQ(root["counters"]["crowdrl.serve.drainmet.answers"].number,
            static_cast<double>(answers_at_drain));
  EXPECT_EQ(root["counters"]["crowdrl.serve.drainmet.rounds"].number,
            static_cast<double>(rounds_at_drain));
  fs::remove_all(dir);
}

// HealthSnapshot exposes per-campaign liveness counters and the
// watchdog's verdicts; on a healthy run every default rule reads clean
// by the end.
TEST(LabellingServiceTest, HealthSnapshotReportsCampaignsAndVerdicts) {
  Workload w;
  core::CrowdRlConfig config = TestConfig();
  config.obs.enabled = true;
  config.obs.lifecycle = true;
  config.obs.flight_recorder = true;

  ServiceOptions service_options;
  service_options.watchdog.enabled = true;
  service_options.watchdog.tick_micros = 1'000;
  LabellingService service(service_options);
  CampaignOptions options;
  options.name = "health";
  options.config = config;
  Campaign* campaign =
      service.AddCampaign(options, &w.dataset, &w.pool, kBudget, 31);
  ASSERT_TRUE(service.StartAll().ok());
  campaign->sessions().ConnectAll();

  std::atomic<bool> stop{false};
  std::vector<std::thread> drivers =
      StartDrivers(campaign, w.pool.size(), &stop);
  ASSERT_TRUE(service.RunUntilComplete().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : drivers) t.join();
  ExpectCompleteAndLabelled(*campaign, w);

  ServiceHealth health = service.HealthSnapshot();
  ASSERT_EQ(health.campaigns.size(), 1u);
  const CampaignHealth& ch = health.campaigns[0];
  EXPECT_EQ(ch.name, "health");
  EXPECT_EQ(ch.state, Campaign::State::kComplete);
  EXPECT_EQ(ch.answers, campaign->answers_committed());
  EXPECT_EQ(ch.rounds, campaign->rounds_completed());
  EXPECT_GT(ch.last_commit_ns, 0u);
  // One verdict per default rule; the campaign finished, so none of the
  // stall rules may still be firing.
  ASSERT_EQ(health.verdicts.size(), 5u);
  for (const obs::WatchdogVerdict& v : health.verdicts) {
    EXPECT_EQ(v.scope_name, "health");
    EXPECT_FALSE(v.firing) << v.rule;
  }
}

}  // namespace
}  // namespace crowdrl::serve
