// Serve-mode load bench: N concurrent campaigns multiplexed over one
// LabellingService, with simulated annotator clients (Poisson think
// times), session churn (periodic disconnect / reconnect with work in
// flight), and asynchronous truth inference on the shared background
// worker. Runs fully instrumented — lifecycle tracing, flight recorder,
// and health watchdog all on — and emits BENCH_serve.json with
// per-campaign answers/sec, the answer-lifecycle stage breakdown
// (dispatch→deliver→arrive→commit→observe, streaming p50/p90/p99 per
// stage), TI swap counts, and the time the pump spent stalled waiting on
// a truth-inference swap.
//
// Flags (self-parsed; this bench's knobs are serve-specific):
//   --campaigns=N        concurrent campaigns            (default 2)
//   --scale=F            dataset/budget scale            (default 0.05)
//   --annotators=M       pool size per campaign          (default 5)
//   --mean_latency_us=U  mean annotator think time       (default 300)
//   --churn_period_ms=P  disconnect one annotator every P ms (0 = off,
//                        default 25)
//   --shared_threads=T   shared selection pool size      (default 2)
//   --objects=N          override objects per campaign   (0 = dataset
//                        default, default 0)
//   --json=PATH          output report                   (default
//                        BENCH_serve.json)
//   --lifecycle_json=P   per-campaign stage-breakdown report (empty = off)
//   --flight_dump=P      dump the flight-recorder ring at exit (decode
//                        with bench/flight_decode; empty = off)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "io/flight_dump.h"
#include "obs/lifecycle.h"
#include "serve/service.h"
#include "util/logging.h"

namespace {

using crowdrl::bench::BenchConfig;
using crowdrl::serve::Campaign;
using crowdrl::serve::CampaignOptions;
using crowdrl::serve::LabellingService;
using crowdrl::serve::ServiceOptions;
using crowdrl::serve::WorkItem;

struct ServeBenchConfig {
  int campaigns = 2;
  double scale = 0.05;
  int annotators = 5;
  double mean_latency_us = 300.0;
  int churn_period_ms = 25;
  int shared_threads = 2;
  size_t objects = 0;  // 0 keeps each dataset variant's own size.
  std::string json = "BENCH_serve.json";
  std::string lifecycle_json;  // Empty = no lifecycle report.
  std::string flight_dump;     // Empty = no flight-recorder dump.
};

ServeBenchConfig ParseServeArgs(int argc, char** argv) {
  ServeBenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--campaigns=")) {
      config.campaigns = std::atoi(v);
    } else if (const char* v = value("--scale=")) {
      config.scale = std::atof(v);
    } else if (const char* v = value("--annotators=")) {
      config.annotators = std::atoi(v);
    } else if (const char* v = value("--mean_latency_us=")) {
      config.mean_latency_us = std::atof(v);
    } else if (const char* v = value("--churn_period_ms=")) {
      config.churn_period_ms = std::atoi(v);
    } else if (const char* v = value("--shared_threads=")) {
      config.shared_threads = std::atoi(v);
    } else if (const char* v = value("--objects=")) {
      config.objects = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--json=")) {
      config.json = v;
    } else if (const char* v = value("--lifecycle_json=")) {
      config.lifecycle_json = v;
    } else if (const char* v = value("--flight_dump=")) {
      config.flight_dump = v;
    } else {
      std::fprintf(stderr,
                   "usage: serve_load [--campaigns=N] [--scale=F] "
                   "[--annotators=M] [--mean_latency_us=U] "
                   "[--churn_period_ms=P] [--shared_threads=T] "
                   "[--objects=N] "
                   "[--json=PATH] [--lifecycle_json=PATH] "
                   "[--flight_dump=PATH]\n");
      std::exit(2);
    }
  }
  CROWDRL_CHECK(config.campaigns >= 1 && config.annotators >= 2);
  return config;
}

/// One campaign's "stages" JSON object from its lifecycle store:
/// {"dispatch_deliver":{"count":N,"p50_us":...,"p90_us":...,"p99_us":...,
/// "max_us":...},...}.
void WriteStageBreakdown(std::FILE* out, const Campaign& campaign) {
  std::fprintf(out, "\"stages\": {");
  for (size_t s = 0; s < crowdrl::obs::kNumLifecycleStages; ++s) {
    const auto stage = static_cast<crowdrl::obs::LifecycleStage>(s);
    const crowdrl::obs::LifecycleSample::StageSample sample =
        crowdrl::obs::SummarizeStage(campaign.lifecycle().stage(stage));
    std::fprintf(out,
                 "%s\"%s\": {\"count\": %llu, \"p50_us\": %.1f, "
                 "\"p90_us\": %.1f, \"p99_us\": %.1f, \"max_us\": %.1f}",
                 s == 0 ? "" : ", ", crowdrl::obs::LifecycleStageName(stage),
                 static_cast<unsigned long long>(sample.count), sample.p50_us,
                 sample.p90_us, sample.p99_us, sample.max_us);
  }
  std::fprintf(out, "}");
}

}  // namespace

int main(int argc, char** argv) {
  const ServeBenchConfig serve_config = ParseServeArgs(argc, argv);

  BenchConfig bench_config;
  bench_config.scale = serve_config.scale;
  bench_config.objects_override = serve_config.objects;

  // Alternate the two speech workloads across campaigns so the scheduler
  // multiplexes genuinely different datasets / budgets.
  const std::vector<std::string> variants = {"S12CP", "S3CP"};
  struct CampaignSetup {
    std::string name;
    crowdrl::data::Dataset dataset;
    std::vector<crowdrl::crowd::Annotator> pool;
    double budget = 0.0;
  };
  std::vector<CampaignSetup> setups(
      static_cast<size_t>(serve_config.campaigns));
  for (int c = 0; c < serve_config.campaigns; ++c) {
    const std::string& variant = variants[c % variants.size()];
    CampaignSetup& setup = setups[static_cast<size_t>(c)];
    setup.name = "campaign" + std::to_string(c) + "_" + variant;
    setup.dataset = crowdrl::bench::MakeDatasetVariant(variant, bench_config);
    setup.pool = crowdrl::bench::MakePoolOfSize(
        serve_config.annotators, setup.dataset.num_classes,
        bench_config.base_seed + static_cast<uint64_t>(c) * 13);
    setup.budget = crowdrl::bench::BudgetFor(variant, bench_config);
  }

  ServiceOptions service_options;
  service_options.shared_threads = serve_config.shared_threads;
  // The observability load test runs fully instrumented: lifecycle
  // tracing + flight recorder + health watchdog (hot-path overhead is
  // budgeted separately by micro_components --obs_overhead_json).
  service_options.watchdog.enabled = true;
  LabellingService service(service_options);
  std::vector<Campaign*> campaigns;
  for (int c = 0; c < serve_config.campaigns; ++c) {
    CampaignSetup& setup = setups[static_cast<size_t>(c)];
    CampaignOptions options;
    options.name = setup.name;
    options.synchronous_inference = false;  // Async TI is the serve mode.
    options.config.obs.enabled = true;
    options.config.obs.lifecycle = true;
    options.config.obs.flight_recorder = true;
    Campaign* campaign = service.AddCampaign(
        options, &setup.dataset, &setup.pool, setup.budget,
        bench_config.base_seed + static_cast<uint64_t>(c));
    campaigns.push_back(campaign);
  }
  CROWDRL_CHECK(service.StartAll().ok());
  for (Campaign* campaign : campaigns) campaign->sessions().ConnectAll();

  // Annotator clients: one thread per (campaign, annotator), Poisson
  // think time between taking a task and reporting its answer.
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < serve_config.campaigns; ++c) {
    Campaign* campaign = campaigns[static_cast<size_t>(c)];
    for (int j = 0; j < serve_config.annotators; ++j) {
      threads.emplace_back([&, campaign, c, j] {
        std::mt19937 rng(static_cast<unsigned>(c * 1000 + j + 1));
        std::exponential_distribution<double> think(
            1.0 / serve_config.mean_latency_us);
        while (!stop.load(std::memory_order_acquire)) {
          std::optional<WorkItem> item = campaign->sessions().RequestWork(j);
          if (item.has_value()) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<int64_t>(think(rng))));
            campaign->ingest().Push(*item);
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    // Churn: one rotating annotator per campaign drops off briefly, with
    // whatever work was queued for it abandoned mid-round.
    if (serve_config.churn_period_ms > 0) {
      threads.emplace_back([&, campaign, c] {
        int next = 0;
        while (!stop.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(serve_config.churn_period_ms));
          const int gone = next++ % serve_config.annotators;
          campaign->sessions().Disconnect(gone);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(serve_config.churn_period_ms / 4 + 1));
          campaign->sessions().Connect(gone);
        }
      });
    }
  }

  // RSS sampler: polls process residency while campaigns run and books
  // the peak against every campaign still live at the sample. Residency
  // is process-wide, so a campaign's figure reads as "peak footprint
  // while this campaign was active", not an exclusive attribution.
  std::vector<std::atomic<size_t>> campaign_peak_rss_kb(campaigns.size());
  for (auto& peak : campaign_peak_rss_kb) peak.store(0);
  std::thread rss_sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const size_t rss = crowdrl::bench::CurrentRssKb();
      for (size_t c = 0; c < campaigns.size(); ++c) {
        if (campaigns[c]->done()) continue;
        size_t prev = campaign_peak_rss_kb[c].load();
        while (prev < rss &&
               !campaign_peak_rss_kb[c].compare_exchange_weak(prev, rss)) {
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  const auto wall_start = std::chrono::steady_clock::now();
  CROWDRL_CHECK(service.RunUntilComplete().ok());
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  stop.store(true, std::memory_order_release);
  rss_sampler.join();
  for (std::thread& t : threads) t.join();
  const size_t peak_rss_kb = crowdrl::bench::PeakRssKb();

  std::FILE* out = std::fopen(serve_config.json.c_str(), "w");
  CROWDRL_CHECK(out != nullptr) << "cannot open " << serve_config.json;
  std::fprintf(out, "{\n");
  crowdrl::bench::WriteBenchMeta(out, serve_config.shared_threads);
  std::fprintf(out,
               "  \"config\": {\"campaigns\": %d, \"scale\": %g, "
               "\"annotators\": %d, \"mean_latency_us\": %g, "
               "\"churn_period_ms\": %d, \"shared_threads\": %d, "
               "\"objects\": %zu},\n",
               serve_config.campaigns, serve_config.scale,
               serve_config.annotators, serve_config.mean_latency_us,
               serve_config.churn_period_ms, serve_config.shared_threads,
               serve_config.objects);
  std::fprintf(out, "  \"wall_seconds\": %.3f,\n", wall_seconds);

  size_t total_answers = 0;
  std::fprintf(out, "  \"campaigns\": [\n");
  for (size_t c = 0; c < campaigns.size(); ++c) {
    Campaign* campaign = campaigns[c];
    total_answers += campaign->answers_committed();
    const auto commit_sample = crowdrl::obs::SummarizeStage(
        campaign->lifecycle().stage(
            crowdrl::obs::LifecycleStage::kArriveToCommit));
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"answers\": %zu, \"rounds\": %zu, "
        "\"answers_per_sec\": %.1f, ",
        setups[c].name.c_str(), campaign->answers_committed(),
        campaign->rounds_completed(),
        static_cast<double>(campaign->answers_committed()) / wall_seconds);
    WriteStageBreakdown(out, *campaign);
    std::fprintf(
        out,
        ", \"ti_swaps\": %zu, \"ti_stall_ms\": %.3f, \"abandoned\": %zu, "
        "\"budget_spent\": %.2f, \"iterations\": %zu, "
        "\"peak_rss_kb\": %zu}%s\n",
        campaign->ti_swaps(),
        static_cast<double>(campaign->ti_stall_ns()) / 1e6,
        campaign->abandoned_items(), campaign->result().budget_spent,
        campaign->result().iterations, campaign_peak_rss_kb[c].load(),
        c + 1 < campaigns.size() ? "," : "");
    std::printf(
        "%-22s answers %6zu  rounds %4zu  commit p50 %8.1fus  "
        "p99 %8.1fus  ti_swaps %3zu  stall %7.1fms  abandoned %4zu\n",
        setups[c].name.c_str(), campaign->answers_committed(),
        campaign->rounds_completed(), commit_sample.p50_us,
        commit_sample.p99_us, campaign->ti_swaps(),
        static_cast<double>(campaign->ti_stall_ns()) / 1e6,
        campaign->abandoned_items());
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"peak_rss_kb\": %zu,\n", peak_rss_kb);
  std::fprintf(out, "  \"total_answers_per_sec\": %.1f\n",
               static_cast<double>(total_answers) / wall_seconds);
  std::fprintf(out, "}\n");
  std::fclose(out);

  if (!serve_config.lifecycle_json.empty()) {
    CROWDRL_CHECK(crowdrl::obs::LifecycleRegistry::Get().WriteJson(
        serve_config.lifecycle_json))
        << "cannot write " << serve_config.lifecycle_json;
    std::printf("lifecycle report -> %s\n",
                serve_config.lifecycle_json.c_str());
  }
  if (!serve_config.flight_dump.empty()) {
    CROWDRL_CHECK(
        crowdrl::io::DumpFlightRecorder(serve_config.flight_dump.c_str()))
        << "cannot write " << serve_config.flight_dump;
    std::printf("flight-recorder dump -> %s\n",
                serve_config.flight_dump.c_str());
  }
  std::printf("total: %.1f answers/sec over %.2fs -> %s\n",
              static_cast<double>(total_answers) / wall_seconds, wall_seconds,
              serve_config.json.c_str());
  return 0;
}
