// Figure 5: scalability — precision of the six frameworks on {0.1, 0.2,
// 0.3, 0.4, 0.5} samples of the three datasets (CP features), budgets
// fixed at the paper's values.
//
// Paper shape: CrowdRL converges to a high precision as the data scale
// grows; the baselines decay with scale; the speech datasets are more
// sensitive to scale than Fashion.
//
// Before the precision tables, a wall-clock sweep of the thread-pooled
// candidate-scoring hot path (featurization + batch Q inference) over
// thread counts {1, 2, ..., --threads}, written to BENCH_scaling.json.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "crowd/answer_log.h"
#include "data/dataset.h"
#include "rl/dqn_agent.h"
#include "util/logging.h"
#include "util/table.h"

namespace {

using crowdrl::bench::BenchConfig;
using crowdrl::bench::Workload;

double MinMillis(const std::vector<double>& samples) {
  double best = samples.front();
  for (double s : samples) best = std::min(best, s);
  return best;
}

// Times DqnAgent::Score (candidate featurization + batch Q inference) and
// QNetwork::PredictBatch alone on one workload-sized state, for each
// thread count 1, 2, 4, ... up to `config.threads`. Scores must be
// bit-identical across thread counts (the pool's determinism contract);
// the sweep aborts if they are not. Emits BENCH_scaling.json.
void RunThreadsSweep(const BenchConfig& config) {
  // A wide pool (24 annotators) makes the candidate set |O| x |W| large
  // enough that per-candidate work dominates dispatch overhead.
  constexpr int kPoolSize = 24;
  constexpr int kReps = 5;
  Workload base = crowdrl::bench::MakeWorkload("S12CP", config);
  size_t num_objects = base.dataset.num_objects();
  std::vector<crowdrl::crowd::Annotator> pool = crowdrl::bench::MakePoolOfSize(
      kPoolSize, base.dataset.num_classes, config.base_seed + 7);

  crowdrl::crowd::AnswerLog answers(num_objects, pool.size());
  std::vector<double> costs, qualities;
  std::vector<bool> is_expert;
  for (const auto& annotator : pool) {
    costs.push_back(annotator.cost());
    qualities.push_back(0.5);
    is_expert.push_back(annotator.is_expert());
  }
  std::vector<bool> labelled(num_objects, false);
  crowdrl::rl::StateView view;
  view.answers = &answers;
  view.num_classes = base.dataset.num_classes;
  view.annotator_costs = &costs;
  view.annotator_qualities = &qualities;
  view.annotator_is_expert = &is_expert;
  view.labelled = &labelled;
  view.max_cost = 10.0;
  std::vector<bool> affordable(pool.size(), true);

  std::vector<int> thread_counts;
  for (int t = 1; t < config.threads; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(config.threads);

  struct SweepRow {
    int threads;
    double score_ms;
    double predict_ms;
  };
  std::vector<SweepRow> rows;
  std::vector<double> reference_scores;
  size_t num_candidates = 0;
  for (int threads : thread_counts) {
    crowdrl::rl::DqnAgentOptions options;
    options.exploration = crowdrl::rl::ExplorationMode::kUcb;
    options.threads = threads;
    options.q.threads = threads;
    options.q.seed = config.base_seed + 3;
    crowdrl::rl::DqnAgent agent(options);
    agent.BeginEpisode(num_objects, pool.size());

    crowdrl::rl::ScoredCandidates warm = agent.Score(view, affordable);
    num_candidates = warm.actions.size();
    if (reference_scores.empty()) {
      reference_scores = warm.scores;
    } else {
      CROWDRL_CHECK(warm.scores == reference_scores)
          << "threads=" << threads
          << " changed candidate scores — determinism contract broken";
    }

    std::vector<double> score_samples, predict_samples;
    for (int rep = 0; rep < kReps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      crowdrl::rl::ScoredCandidates scored = agent.Score(view, affordable);
      auto mid = std::chrono::steady_clock::now();
      std::vector<double> q =
          agent.q_network().PredictBatch(scored.features);
      auto end = std::chrono::steady_clock::now();
      score_samples.push_back(
          std::chrono::duration<double, std::milli>(mid - start).count());
      predict_samples.push_back(
          std::chrono::duration<double, std::milli>(end - mid).count());
      CROWDRL_CHECK(q.size() == scored.actions.size());
    }
    rows.push_back(
        {threads, MinMillis(score_samples), MinMillis(predict_samples)});
  }

  std::printf("-- threads sweep: candidate scoring (S12CP, |W|=%d, %zu "
              "candidates, best of %d) --\n",
              kPoolSize, num_candidates, kReps);
  crowdrl::Table table({"threads", "score_ms", "predict_ms", "speedup"});
  for (const SweepRow& row : rows) {
    table.AddRow(std::to_string(row.threads),
                 {row.score_ms, row.predict_ms,
                  rows.front().score_ms / row.score_ms});
  }
  table.Print(std::cout);

  std::FILE* json = std::fopen("BENCH_scaling.json", "w");
  CROWDRL_CHECK(json != nullptr) << "cannot write BENCH_scaling.json";
  std::fprintf(json, "{\n");
  crowdrl::bench::WriteBenchMeta(json, rows.back().threads);
  std::fprintf(json,
               "  \"bench\": \"fig5_threads_sweep\",\n"
               "  \"stage\": \"candidate_scoring\",\n"
               "  \"dataset\": \"S12CP\",\n"
               "  \"num_objects\": %zu,\n"
               "  \"num_annotators\": %d,\n"
               "  \"candidates\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"results\": [\n",
               num_objects, kPoolSize, num_candidates, kReps);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(json,
                 "    {\"threads\": %d, \"score_ms\": %.3f, "
                 "\"predict_ms\": %.3f, \"speedup_score\": %.3f, "
                 "\"speedup_predict\": %.3f}%s\n",
                 rows[i].threads, rows[i].score_ms, rows[i].predict_ms,
                 rows.front().score_ms / rows[i].score_ms,
                 rows.front().predict_ms / rows[i].predict_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_scaling.json\n\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = crowdrl::bench::ParseArgs(argc, argv);
  crowdrl::bench::PrintBanner("Figure 5: scalability (precision)", config);

  RunThreadsSweep(config);

  const std::vector<double> ratios = {0.1, 0.2, 0.3, 0.4, 0.5};
  const std::vector<std::string> datasets = {"S12CP", "S3CP", "Fashion"};
  std::vector<double> pretrained = crowdrl::bench::PretrainCrowdRl(config);

  for (const std::string& name : datasets) {
    // Sampling applies to the objects; the budget stays at the (scaled)
    // paper value, which is what makes small samples easy and large ones
    // budget-constrained — the effect Fig. 5 shows.
    Workload base = crowdrl::bench::MakeWorkload(name, config);
    std::vector<std::string> header = {"method"};
    for (double r : ratios) header.push_back(crowdrl::FormatDouble(r, 1));
    crowdrl::Table table(header);

    // Passing the config threads the observability flags (and checkpoint
    // flags) into the CrowdRL entry: with --metrics_out each CrowdRL cell
    // rewrites the JSONL, so the file left on disk describes the last cell
    // run; --trace_out is written once, after the last cell, with every
    // cell's spans.
    auto frameworks = crowdrl::bench::MakeAllFrameworks(pretrained, &config);
    for (auto& framework : frameworks) {
      std::vector<double> precisions;
      for (double ratio : ratios) {
        crowdrl::Rng rng(config.base_seed + 77);
        Workload sampled;
        sampled.dataset =
            crowdrl::data::Subsample(base.dataset, ratio, &rng);
        sampled.pool = base.pool;
        sampled.budget = base.budget;
        auto outcome =
            crowdrl::bench::RunCell(framework.get(), sampled, config);
        precisions.push_back(outcome.mean.precision);
      }
      table.AddRow(framework->name(), precisions);
    }
    std::printf("-- %s (budget %.0f) --\n", name.c_str(), base.budget);
    table.Print(std::cout);
    std::printf("\n");
    std::fflush(stdout);
  }
  crowdrl::bench::WriteTraceOut(config);
  return 0;
}
