// Batch workloads: one labelling run driven through core::RunState stage
// by stage, exactly as CrowdRlFramework::Run sequences it (bootstrap, then
// plan → execute → finish per iteration, then finalize), with every stage
// timed from outside.
//
//   batch-paper     S12CP at paper size: 2,344 objects, 5 annotators,
//                   budget 10,000. Truth inference + phi retraining
//                   (core.finish) dominate.
//   batch-widepool  2,048 objects, 200 annotators (~410k pairs): the flat
//                   shortlist-pruned selection (core.plan) dominates.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/run_state.h"
#include "crowd/annotator.h"
#include "data/workloads.h"
#include "perfbench.h"
#include "util/logging.h"

namespace perfbench {

namespace {

using crowdrl::core::IterationPlan;
using crowdrl::core::LabellingResult;
using crowdrl::core::LabelSource;
using crowdrl::core::RunState;

struct BatchShape {
  size_t objects;
  int annotators;
  double budget;
  /// Labelling iterations per run (CrowdRlConfig::max_iterations). Set so
  /// the budget is never exhausted: every run does the same number of
  /// rounds and no planned pair is refused.
  size_t iterations;
  int trajectories;
};

/// Input seeds of one trajectory.
struct TrajectorySeeds {
  uint64_t dataset;
  uint64_t pool;
  uint64_t run;
};

constexpr int kMainTrack = 0;

class BatchWorkload : public Workload {
 public:
  BatchWorkload(const BatchShape& shape, const RunOptions& options)
      : shape_(shape) {
    config_.max_iterations = shape.iterations;
    for (int t = 0; t < shape.trajectories; ++t) {
      const uint64_t base = DeriveSeed(options.seed, 100 + t);
      seeds_.push_back({DeriveSeed(base, 1), DeriveSeed(base, 2),
                        DeriveSeed(base, 3)});
    }
  }

  std::string ConfigJson() const override {
    std::string seeds;
    for (const TrajectorySeeds& s : seeds_) {
      seeds += (seeds.empty() ? "[" : ", [") + std::to_string(s.dataset) +
               ", " + std::to_string(s.pool) + ", " + std::to_string(s.run) +
               "]";
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"dataset\": \"S12CP\", \"objects\": %zu, "
                  "\"annotators\": %d, \"budget\": %.1f, "
                  "\"max_iterations\": %zu, \"k\": %d, "
                  "\"agent_threads\": 1, \"trajectories\": %d, "
                  "\"seeds_dataset_pool_run\": ",
                  shape_.objects, shape_.annotators, shape_.budget,
                  shape_.iterations, config_.k, shape_.trajectories);
    return buf + seeds + "]}";
  }

  int threads() const override { return 1; }
  int trajectories() const override { return shape_.trajectories; }

  double MeasureSetup() override {
    const int64_t start = NowNs();
    Inputs inputs = MakeInputs(seeds_[0]);
    auto rs = std::make_unique<RunState>(&config_, &inputs.dataset,
                                         &inputs.pool, shape_.budget,
                                         seeds_[0].run);
    return MsBetween(start, NowNs()) / 1e3;
  }

  EpisodeResult RunEpisode(int trajectory, SpanRecorder* spans) override;

 private:
  struct Inputs {
    crowdrl::data::Dataset dataset;
    std::vector<crowdrl::crowd::Annotator> pool;
  };

  Inputs MakeInputs(const TrajectorySeeds& seeds) const {
    crowdrl::data::SpeechOptions speech;
    speech.num_objects = shape_.objects;
    speech.view = crowdrl::data::FeatureView::kConcatenated;
    speech.seed = seeds.dataset;
    Inputs inputs;
    inputs.dataset = crowdrl::data::MakeSpeech12(speech);
    inputs.pool = crowdrl::crowd::MakePool(crowdrl::crowd::PoolOfSize(
        shape_.annotators, inputs.dataset.num_classes, seeds.pool));
    return inputs;
  }

  BatchShape shape_;
  std::vector<TrajectorySeeds> seeds_;
  crowdrl::core::CrowdRlConfig config_;
};

EpisodeResult BatchWorkload::RunEpisode(int trajectory, SpanRecorder* spans) {
  EpisodeResult out;
  const TrajectorySeeds& seeds = seeds_[static_cast<size_t>(trajectory)];
  const int64_t setup_start = NowNs();
  Inputs inputs = MakeInputs(seeds);
  auto rs = std::make_unique<RunState>(&config_, &inputs.dataset,
                                       &inputs.pool, shape_.budget,
                                       seeds.run);
  const int64_t run_start = NowNs();
  out.setup_s = MsBetween(setup_start, run_start) / 1e3;

  std::vector<double> plan_ms;
  std::vector<double> finish_ms;
  LabellingResult result;
  bool ok = true;
  uint64_t refused = 0;
  uint64_t attempted = 0;
  {
    ScopedSpan episode(spans, kMainTrack, "episode");
    {
      ScopedSpan span(spans, kMainTrack, "core.bootstrap");
      ok = rs->Bootstrap().ok();
    }
    // The previous round's answers are all in at this instant; the next
    // round's work exists once the following plan returns. That gap is
    // what an annotator of the synchronous loop waits.
    int64_t last_execute_end = 0;
    while (ok) {
      IterationPlan plan;
      const int64_t plan_start = NowNs();
      {
        ScopedSpan span(spans, kMainTrack, "core.plan");
        rs->PlanIteration(/*connected=*/nullptr, /*observe_pending=*/true,
                          &plan);
      }
      const int64_t plan_end = NowNs();
      plan_ms.push_back(MsBetween(plan_start, plan_end));
      if (last_execute_end != 0) {
        out.task_waits_ms.push_back(MsBetween(last_execute_end, plan_end));
      }
      if (plan.stop) break;

      std::vector<bool> executed(plan.pairs.size(), false);
      {
        ScopedSpan span(spans, kMainTrack, "core.execute");
        bool out_of_budget = false;
        for (size_t p = 0; p < plan.pairs.size() && !out_of_budget; ++p) {
          bool paid = false;
          ++attempted;
          ok = rs->ExecutePair(plan.pairs[p].first, plan.pairs[p].second,
                               &paid, &out_of_budget)
                   .ok();
          if (!ok) break;
          if (out_of_budget) ++refused;
          executed[p] = paid;
        }
      }
      last_execute_end = NowNs();
      if (!ok) break;
      {
        ScopedSpan span(spans, kMainTrack, "core.finish");
        ok = rs->FinishIteration(plan, executed).ok();
      }
      finish_ms.push_back(MsBetween(last_execute_end, NowNs()));
    }
    if (ok) {
      ScopedSpan span(spans, kMainTrack, "core.finalize");
      rs->ObserveFinalPending();
      ok = rs->Finalize(&result).ok();
    }
  }
  out.run_s = MsBetween(run_start, NowNs()) / 1e3;

  const size_t n = inputs.dataset.num_objects();
  bool all_labelled = ok && result.labels.size() == n;
  for (size_t i = 0; all_labelled && i < n; ++i) {
    all_labelled = result.sources[i] != LabelSource::kNone &&
                   result.labels[i] >= 0 &&
                   result.labels[i] < inputs.dataset.num_classes;
  }
  out.checks.emplace_back("run completed without error", ok);
  out.checks.emplace_back("every object labelled", all_labelled);
  out.checks.emplace_back("spend <= budget",
                          result.budget_spent <= shape_.budget + 1e-9);
  out.checks.emplace_back(
      "answers logged == human answers reported",
      rs->env.answers().total_answers() == result.human_answers);

  out.answers = static_cast<double>(result.human_answers);
  out.accuracy = Accuracy(result.labels, inputs.dataset.truths);
  out.attempted = attempted;
  out.failed = refused;
  uint64_t fp = 0;
  for (int label : result.labels) fp = Mix(fp, static_cast<uint64_t>(label));
  for (const auto& record : rs->assignment_log) {
    fp = Mix(fp, static_cast<uint64_t>(record.object) * 4099u +
                     static_cast<uint64_t>(record.annotator) * 2u +
                     (record.executed ? 1u : 0u));
  }
  out.fingerprint = fp;

  // Counters from public getters: identical in plain and traced episodes.
  const crowdrl::rl::DqnAgent& agent = rs->agent;
  const auto& cache = agent.score_cache().cumulative_stats();
  const auto& prune = agent.shortlist_pruner().stats();
  const auto& hier = agent.hier_stats();
  auto& L = out.layers;
  L["core.iterations"] = {static_cast<double>(rs->iterations), "count"};
  L["rl.rows_featurized"] = {static_cast<double>(agent.rows_featurized()),
                             "count"};
  const double lookups =
      static_cast<double>(cache.block_hits + cache.block_misses);
  L["rl.score_cache.hit_rate"] = {
      lookups > 0 ? static_cast<double>(cache.block_hits) / lookups : 0.0,
      "fraction"};
  const double selections =
      static_cast<double>(prune.pruned_iterations + prune.full_iterations);
  L["rl.prune.served_fraction"] = {
      selections > 0
          ? static_cast<double>(prune.pruned_iterations) / selections
          : 0.0,
      "fraction"};
  L["rl.prune.exact_rows"] = {static_cast<double>(prune.exact_rows), "count"};
  L["rl.prune.gate_fallbacks"] = {static_cast<double>(prune.gate_fallbacks),
                                  "count"};
  L["rl.hier.scored_pairs"] = {static_cast<double>(hier.scored_pairs),
                               "count"};
  L["rl.hier.full_fallbacks"] = {static_cast<double>(hier.full_fallbacks),
                                 "count"};
  L["rl.hier.rep_refreshes"] = {static_cast<double>(hier.rep_refreshes),
                                "count"};

  if (spans->enabled()) {
    const auto agg = spans->Aggregates();
    auto total = [&agg](const char* name) {
      auto it = agg.find(name);
      return it == agg.end() ? 0.0 : it->second.total_ms;
    };
    L["core.bootstrap_ms"] = {total("core.bootstrap"), "ms"};
    L["core.plan_ms"] = {total("core.plan"), "ms"};
    L["core.plan_ms.p50"] = {Median(plan_ms), "ms"};
    L["core.execute_ms"] = {total("core.execute"), "ms"};
    L["core.finish_ms"] = {total("core.finish"), "ms"};
    L["core.finish_ms.p50"] = {Median(finish_ms), "ms"};
    L["core.finalize_ms"] = {total("core.finalize"), "ms"};
    L["trace.unattributed_fraction"] = {
        agg.at("episode").self_ms / agg.at("episode").total_ms, "fraction"};
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeBatchPaper(const RunOptions& options) {
  return std::make_unique<BatchWorkload>(
      BatchShape{2344, 5, 10000.0, /*iterations=*/50, /*trajectories=*/8}, options);
}

std::unique_ptr<Workload> MakeBatchWidePool(const RunOptions& options) {
  return std::make_unique<BatchWorkload>(
      BatchShape{2048, 200, 8000.0, /*iterations=*/10, /*trajectories=*/3}, options);
}

}  // namespace perfbench
