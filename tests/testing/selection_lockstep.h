#ifndef CROWDRL_TESTS_TESTING_SELECTION_LOCKSTEP_H_
#define CROWDRL_TESTS_TESTING_SELECTION_LOCKSTEP_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crowd/answer_log.h"
#include "io/serializer.h"
#include "math/matrix.h"
#include "rl/dqn_agent.h"
#include "rl/state.h"
#include "util/random.h"

namespace crowdrl::testing {

/// A drifting workload for selection tests: answers arrive, classifier
/// beliefs get nudged (not re-rolled — steady drift is the regime the
/// gated engine's bounds are built for), qualities creep, progress
/// counters advance. With `twins`, annotators come in identical pairs, so
/// an object's Q values tie exactly across each pair.
///
/// With `smooth`, the landscape is perfbench select-hier's instead: class
/// beliefs follow a slow wave over the object index and qualities a slow
/// wave over the annotator index (with a small monotone tilt that keeps
/// them pairwise distinct), every cost is 1, and beliefs are never
/// nudged. Neighbouring objects and annotators then score alike, which is
/// the regime the tile bounds are built for; on random beliefs they are
/// loose and the gate falls back to full scoring.
struct SelectionScenario {
  /// Default grid (the fixed-size suites use these).
  static constexpr size_t kObjects = 40;
  static constexpr size_t kAnnotators = 10;
  static constexpr int kClasses = 3;

  size_t objects;
  size_t annotators;
  crowd::AnswerLog answers;
  std::vector<double> costs;
  std::vector<double> qualities;
  std::vector<bool> is_expert;
  std::vector<bool> labelled;
  std::vector<bool> affordable;
  Matrix class_probs;
  size_t probs_version = 0;
  double budget_fraction = 1.0;
  double fraction_labelled = 0.0;
  double max_cost = 6.0;
  bool twins;
  bool smooth;
  Rng rng;

  explicit SelectionScenario(uint64_t seed = 907, bool twins = false,
                             size_t objects = kObjects,
                             size_t annotators = kAnnotators,
                             bool smooth = false)
      : objects(objects),
        annotators(annotators),
        answers(objects, annotators),
        class_probs(objects, static_cast<size_t>(kClasses)),
        twins(twins),
        smooth(smooth),
        rng(seed) {
    labelled.assign(objects, false);
    if (smooth) {
      InitSmooth();
      return;
    }
    for (size_t j = 0; j < annotators; ++j) {
      const size_t rank = twins ? j / 2 : j;
      const bool expert = rank + 1 == (twins ? annotators / 2 : annotators);
      costs.push_back(expert ? 6.0 : 1.0 + 0.2 * static_cast<double>(rank));
      qualities.push_back(0.55 + 0.03 * static_cast<double>(rank));
      is_expert.push_back(expert);
      affordable.push_back(true);
    }
    for (size_t i = 0; i < objects; ++i) {
      double sum = 0.0;
      double* row = class_probs.Row(i);
      for (int c = 0; c < kClasses; ++c) {
        row[c] = 0.1 + rng.Uniform();
        sum += row[c];
      }
      for (int c = 0; c < kClasses; ++c) row[c] /= sum;
    }
    probs_version = 1;
  }

  /// Quality creep on one annotator (on both of a twin pair).
  void NudgeQuality() {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(static_cast<int>(annotators)));
    qualities[j] += 0.01;
    if (twins && (j ^ 1) < annotators) qualities[j ^ 1] += 0.01;
  }

  /// select-hier's landscape (perfbench/select_hier.cc): wavelengths are
  /// fixed in objects / annotators, so a bucket spans a sliver of the
  /// class wave whatever the grid size.
  void InitSmooth() {
    const double two_pi = 2.0 * M_PI;
    for (size_t i = 0; i < objects; ++i) {
      const double phase = two_pi * static_cast<double>(i) / 1048576.0;
      double* row = class_probs.Row(i);
      double max_logit = -1e300;
      for (int c = 0; c < kClasses; ++c) {
        row[c] = 1.5 * std::sin(phase + 2.1 * c) +
                 0.002 * rng.Uniform(-1.0, 1.0);
        max_logit = std::max(max_logit, row[c]);
      }
      double denom = 0.0;
      for (int c = 0; c < kClasses; ++c) {
        row[c] = std::exp(row[c] - max_logit);
        denom += row[c];
      }
      for (int c = 0; c < kClasses; ++c) row[c] /= denom;
    }
    for (size_t j = 0; j < annotators; ++j) {
      const double phase = two_pi * static_cast<double>(j) / 4096.0;
      costs.push_back(1.0);
      qualities.push_back(0.75 + 0.02 * std::sin(phase) +
                          1e-4 * static_cast<double>(j) /
                              static_cast<double>(annotators));
      is_expert.push_back(false);
      affordable.push_back(true);
    }
    max_cost = 1.0;
    probs_version = 1;
  }

  /// Belief drift; a no-op on the smooth landscape.
  void NudgeProbs() {
    if (smooth) return;
    for (size_t i = 0; i < objects; ++i) {
      double sum = 0.0;
      double* row = class_probs.Row(i);
      for (int c = 0; c < kClasses; ++c) {
        row[c] = std::max(0.01, row[c] + 0.02 * (rng.Uniform() - 0.5));
        sum += row[c];
      }
      for (int c = 0; c < kClasses; ++c) row[c] /= sum;
    }
    ++probs_version;
  }

  rl::StateView View() const {
    rl::StateView view;
    view.answers = &answers;
    view.num_classes = kClasses;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.class_probs = &class_probs;
    view.class_probs_version = probs_version;
    view.labelled = &labelled;
    view.budget_fraction_remaining = budget_fraction;
    view.fraction_labelled = fraction_labelled;
    view.max_cost = max_cost;
    return view;
  }
};

inline void ExpectSameAssignments(const std::vector<rl::Assignment>& got,
                                  const std::vector<rl::Assignment>& want,
                                  int iter) {
  ASSERT_EQ(got.size(), want.size()) << "iter " << iter;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].object, want[i].object) << "iter " << iter;
    ASSERT_EQ(got[i].annotators, want[i].annotators)
        << "iter " << iter << " object " << got[i].object;
  }
}

/// Full scoring through the public API — Score, PickTopKSumAssignments,
/// Commit — the answer every gated selection must equal.
inline std::vector<rl::Assignment> SelectByFullScoring(
    rl::DqnAgent* agent, const rl::StateView& view, int k, int picks,
    const std::vector<bool>& affordable) {
  rl::ScoredCandidates candidates = agent->Score(view, affordable);
  std::vector<size_t> chosen;
  std::vector<rl::Assignment> assignments = rl::PickTopKSumAssignments(
      candidates, k, picks, view.answers->num_objects(), &chosen);
  agent->Commit(candidates, chosen);
  return assignments;
}

/// Audited SelectBatch: computes the full-scoring answer under the
/// agent's own current state first — Score commits nothing, draws no RNG
/// outside epsilon-greedy and leaves the pruner untouched, so the audit
/// cannot change what is selected; it does sync the ScoreCache ahead of
/// SelectBatch — then requires SelectBatch to serve exactly that answer,
/// objects and annotator order (= Commit order) included.
inline void AuditedSelectBatch(rl::DqnAgent* agent, const rl::StateView& view,
                               int k, int picks,
                               const std::vector<bool>& affordable, int iter,
                               std::vector<rl::Assignment>* got) {
  rl::ScoredCandidates full = agent->Score(view, affordable);
  std::vector<size_t> chosen;
  std::vector<rl::Assignment> want = rl::PickTopKSumAssignments(
      full, k, picks, view.answers->num_objects(), &chosen);
  *got = agent->SelectBatch(view, k, picks, affordable);
  ExpectSameAssignments(*got, want, iter);
}

inline rl::DqnAgent RoundTrip(const rl::DqnAgent& agent,
                              rl::DqnAgentOptions options) {
  io::Writer writer;
  agent.SaveState(&writer);
  rl::DqnAgent fresh(std::move(options));
  io::Reader reader(writer.bytes());
  EXPECT_TRUE(fresh.LoadState(&reader).ok());
  return fresh;
}

/// One audited lockstep configuration.
struct LockstepConfig {
  uint64_t scenario_seed = 907;
  size_t objects = SelectionScenario::kObjects;
  size_t annotators = SelectionScenario::kAnnotators;
  /// Identical annotator pairs (SelectionScenario::twins): exact Q ties.
  bool twins = false;
  /// select-hier's index-smooth landscape (SelectionScenario::smooth),
  /// driven by bench/scale_stress's agent options — the defaults with two
  /// train steps per observe — instead of the small-grid ones below.
  bool smooth = false;
  /// Tiled: the gated engine tiles this tiny grid (hier_min_pairs = 0)
  /// into `bucket`-object buckets x `group`-annotator groups, so the
  /// descent has real structure and the unexpanded-bucket gate real
  /// remainders to bound.
  bool tiled = false;
  size_t bucket = 8;
  size_t group = 4;
  /// The tiled descent's pair target (DqnAgentOptions::prune_shortlist):
  /// small, so that the descent leaves buckets of these small grids
  /// unexpanded (the auto floor of 4,096 pairs would expand them all).
  size_t shortlist = 48;
  rl::ExplorationMode exploration = rl::ExplorationMode::kUcb;
  int train_steps_per_observe = 2;
  /// Lanes of both agent pools: featurization and the Q forward, which
  /// also runs the tiled gate's per-pair loops.
  int threads = 1;
  int iterations = 24;
  /// Both agents are checkpointed into fresh agents after this iteration.
  int restore_after = 11;
  /// Selection shape when there is no churn.
  int k = 2;
  int picks = 4;
  /// Churn: every iteration may also label an object, flip an annotator's
  /// affordability, and draw a fresh k and pick count.
  bool churn = false;
};

inline rl::DqnAgentOptions LockstepOptions(const LockstepConfig& config) {
  rl::DqnAgentOptions options;
  if (!config.smooth) {
    options.seed = 61;
    options.q.seed = 67;
    options.min_replay_before_training = 16;
    options.train_batch = 8;
  }
  options.threads = config.threads;
  options.q.threads = config.threads;
  options.train_steps_per_observe = config.train_steps_per_observe;
  options.exploration = config.exploration;
  options.prune_shortlist = config.shortlist;
  if (config.tiled) {
    options.hier_min_pairs = 0;
    options.hier_object_bucket = config.bucket;
    options.hier_annotator_group = config.group;
  }
  return options;
}

/// Selection statistics of one agent, summed over lockstep runs.
struct LockstepStats {
  rl::ShortlistPruner::Stats prune;
  rl::DqnAgent::HierStats hier;
  /// Gated selections that left a live bucket unexpanded.
  size_t served_unexpanded = 0;
};

/// The two halves of lockstep runs, kept apart: stats are not
/// checkpointed, so the restored agent's counters cover only what it
/// served itself.
struct LockstepOutcome {
  LockstepStats before;  ///< Up to and including `restore_after`.
  LockstepStats after;   ///< The restored agent.
};

/// Adds one agent's stats to `out`. The tiled gate scores every pair of
/// the buckets it expands exactly once, so each agent's scored and
/// enumerated pairs must agree.
inline void Accumulate(const rl::DqnAgent& agent, LockstepStats* out) {
  EXPECT_EQ(agent.hier_stats().scored_pairs,
            agent.hier_stats().enumerated_pairs);
  const rl::ShortlistPruner::Stats& p = agent.shortlist_pruner().stats();
  out->prune.pruned_iterations += p.pruned_iterations;
  out->prune.full_iterations += p.full_iterations;
  out->prune.gate_fallbacks += p.gate_fallbacks;
  out->prune.precheck_fallbacks += p.precheck_fallbacks;
  out->prune.gate_recoveries += p.gate_recoveries;
  out->prune.exact_rows += p.exact_rows;
  const rl::DqnAgent::HierStats& h = agent.hier_stats();
  out->hier.iterations += h.iterations;
  out->hier.gated_iterations += h.gated_iterations;
  out->hier.full_fallbacks += h.full_fallbacks;
  out->hier.rounds += h.rounds;
  out->hier.scored_pairs += h.scored_pairs;
  out->hier.enumerated_pairs += h.enumerated_pairs;
  out->hier.rep_refreshes += h.rep_refreshes;
  out->hier.expanded_buckets += h.expanded_buckets;
  out->hier.live_buckets += h.live_buckets;
}

/// The audited lockstep: a SelectBatch-driven agent must serve exactly
/// what a twin with identical options driven through SelectByFullScoring
/// selects, at every iteration of a drifting run, across a mid-run
/// checkpoint/restore of both agents (the gated engine's tables are not
/// serialized). Every second selection is also audited against the
/// agent's own full scoring. Auditing syncs the agent's ScoreCache first,
/// so the other selections — the first of each half among them — leave
/// the dirty-block refresh and full rebuild to SelectBatch itself.
inline void RunAuditedLockstep(const LockstepConfig& config,
                               LockstepOutcome* outcome) {
  SelectionScenario s(config.scenario_seed, config.twins, config.objects,
                      config.annotators, config.smooth);
  const rl::DqnAgentOptions options = LockstepOptions(config);
  rl::DqnAgent gated(options);
  rl::DqnAgent twin(options);
  gated.BeginEpisode(config.objects, config.annotators);
  twin.BeginEpisode(config.objects, config.annotators);
  ASSERT_EQ(gated.HierEngaged(), config.tiled);
  ASSERT_LT(config.restore_after, config.iterations);

  int since_fresh = 0;  // Selections of the current agent.
  for (int iter = 0; iter < config.iterations; ++iter) {
    if (iter % 2 == 1) s.NudgeProbs();
    if (iter % 5 == 4) s.NudgeQuality();
    s.budget_fraction = std::max(0.0, s.budget_fraction - 0.02);
    int k = config.k;
    int picks = config.picks;
    if (config.churn) {
      if (s.rng.Bernoulli(0.15)) {
        const int j = s.rng.UniformInt(static_cast<int>(config.annotators));
        s.affordable[static_cast<size_t>(j)] =
            !s.affordable[static_cast<size_t>(j)];
        // A departure draws one coin that decides nothing, so that the
        // seeded configurations replay the runs their seeds name.
        if (!s.affordable[static_cast<size_t>(j)]) s.rng.Bernoulli(0.5);
      }
      if (s.rng.Bernoulli(0.3)) {
        s.labelled[static_cast<size_t>(
            s.rng.UniformInt(static_cast<int>(config.objects)))] = true;
      }
      k = 1 + s.rng.UniformInt(3);
      picks = 1 + s.rng.UniformInt(6);
    }

    const rl::DqnAgent::HierStats prior = gated.hier_stats();
    std::vector<rl::Assignment> got;
    if (since_fresh++ % 2 == 1) {
      AuditedSelectBatch(&gated, s.View(), k, picks, s.affordable, iter,
                         &got);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      got = gated.SelectBatch(s.View(), k, picks, s.affordable);
    }
    std::vector<rl::Assignment> want =
        SelectByFullScoring(&twin, s.View(), k, picks, s.affordable);
    ExpectSameAssignments(got, want, iter);
    if (::testing::Test::HasFatalFailure()) return;
    const rl::DqnAgent::HierStats& now = gated.hier_stats();
    if (now.gated_iterations > prior.gated_iterations &&
        now.expanded_buckets - prior.expanded_buckets <
            now.live_buckets - prior.live_buckets) {
      ++(iter <= config.restore_after ? outcome->before : outcome->after)
            .served_unexpanded;
    }

    for (const rl::Assignment& assignment : want) {
      for (int j : assignment.annotators) {
        s.answers.Record(assignment.object, j,
                         s.rng.UniformInt(SelectionScenario::kClasses));
      }
    }
    s.fraction_labelled = std::min(1.0, s.fraction_labelled + 0.01);
    const double reward = s.rng.Uniform();
    gated.Observe(reward, s.View(), s.affordable, /*terminal=*/false);
    twin.Observe(reward, s.View(), s.affordable, /*terminal=*/false);

    if (iter == config.restore_after) {
      Accumulate(gated, &outcome->before);
      gated = RoundTrip(gated, options);
      twin = RoundTrip(twin, options);
      ASSERT_EQ(gated.HierEngaged(), config.tiled);
      since_fresh = 0;
    }
  }
  Accumulate(gated, &outcome->after);
}

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_SELECTION_LOCKSTEP_H_
