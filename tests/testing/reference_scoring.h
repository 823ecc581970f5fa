#ifndef CROWDRL_TESTS_TESTING_REFERENCE_SCORING_H_
#define CROWDRL_TESTS_TESTING_REFERENCE_SCORING_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "rl/dqn_agent.h"
#include "rl/q_network.h"
#include "rl/state.h"

namespace crowdrl::testing {

/// The naive full-grid scorer the incremental ScoreCache engine replaced,
/// kept as the bitwise reference for DqnAgent::Score: every valid pair
/// (object unlabelled, annotator affordable, pair unanswered) enumerated in
/// ascending (object, annotator) order, featurized from scratch by
/// StateFeaturizer::Featurize, run through the network's dense forward,
/// plus the UCB1 bonus from selection counts this class mirrors itself
/// (Commit). Do not speed this up; its only job is to be obviously right.
class ReferenceScorer {
 public:
  ReferenceScorer(size_t num_objects, size_t num_annotators, double ucb_c)
      : num_annotators_(num_annotators),
        ucb_c_(ucb_c),
        counts_(num_objects * num_annotators, 0) {}

  rl::ScoredCandidates Score(const rl::StateView& view,
                             const std::vector<bool>& affordable,
                             const rl::QNetwork& network) const {
    rl::ScoredCandidates out;
    const size_t num_objects = view.answers->num_objects();
    for (size_t i = 0; i < num_objects; ++i) {
      if ((*view.labelled)[i]) continue;
      for (size_t j = 0; j < num_annotators_; ++j) {
        if (!affordable[j]) continue;
        if (view.answers->HasAnswer(static_cast<int>(i),
                                    static_cast<int>(j))) {
          continue;
        }
        out.actions.push_back({static_cast<int>(i), static_cast<int>(j)});
      }
    }
    out.features =
        Matrix(out.actions.size(), rl::StateFeaturizer::kFeatureDim);
    rl::StateFeaturizer featurizer;
    rl::StateFeaturizer::Scratch scratch;
    for (size_t idx = 0; idx < out.actions.size(); ++idx) {
      featurizer.Featurize(view, out.actions[idx].object,
                           out.actions[idx].annotator, &scratch,
                           out.features.Row(idx));
    }
    if (out.actions.empty()) return out;
    out.scores = network.PredictBatch(out.features);
    const double log_term =
        2.0 * std::log(static_cast<double>(total_selections_) + 1.0);
    for (size_t idx = 0; idx < out.actions.size(); ++idx) {
      const int n = counts_[PairIndex(out.actions[idx])];
      out.scores[idx] +=
          ucb_c_ * std::sqrt(log_term / (static_cast<double>(n) + 1.0));
    }
    return out;
  }

  /// Mirrors DqnAgent::Commit's exploration bookkeeping.
  void Commit(const rl::ScoredCandidates& candidates,
              const std::vector<size_t>& chosen) {
    for (size_t idx : chosen) {
      ++counts_[PairIndex(candidates.actions[idx])];
      ++total_selections_;
    }
  }

 private:
  size_t PairIndex(const rl::Action& a) const {
    return static_cast<size_t>(a.object) * num_annotators_ +
           static_cast<size_t>(a.annotator);
  }

  size_t num_annotators_;
  double ucb_c_;
  std::vector<int> counts_;
  size_t total_selections_ = 0;
};

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_REFERENCE_SCORING_H_
