#include "rl/dqn_agent.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/topk.h"

namespace crowdrl::rl {

namespace {

/// Minimum candidates per parallel featurization chunk. The actual grain
/// adapts upward to candidates / (lanes * kFeaturizeChunksPerLane): the
/// threadpool task_wait_us/task_run_us histograms showed that at the big
/// scoring batches (tens of thousands of rows) a fixed small grain makes
/// per-chunk run time comparable to dispatch wake-up latency, which is
/// why row-tiling barely paid. A handful of chunks per lane amortizes the
/// dispatch while still load balancing; every row depends only on its own
/// pair, so grain never changes results.
constexpr size_t kFeaturizeGrain = 128;
constexpr size_t kFeaturizeChunksPerLane = 4;

/// Absolute slack required between per-object top-k sums before the
/// gated selection trusts their ordering. Sums are accumulated in heap
/// order, which can differ between the gated and the full pass, so two
/// sums closer than a few ULPs could legitimately compare differently
/// there; anything inside this band fails the gate. Far above any
/// reachable reordering error (~1e-15 at these magnitudes), far below
/// meaningful score differences.
constexpr double kSumGateBand = 1e-9;

/// Suspect-rescoring rounds (ladder rung 1) per selection. One round
/// usually suffices: the first gate run names the contender objects, whose
/// unscored candidates are a tiny exact batch; the second exists for the
/// rare case where rescoring shuffles the provisional winners and a new
/// contender appears.
constexpr int kSuspectRounds = 2;

/// Re-bounding rounds (after a precheck violation) plus bucket-expansion
/// rounds (ladder rung 2) per selection before the engine resorts to
/// full scoring. A handful covers any realistic contention; the cap only
/// bounds pathological drift.
constexpr int kMaxRounds = 4;

/// Floor on the tiled descent's exact-scoring target (scaled by the
/// pruner's adaptive boost and by the selection size). Far below any grid
/// the tiling engages on, far above the handful of pairs a selection
/// actually commits.
constexpr size_t kHierTargetPairsFloor = 4096;

/// Appends the valid pairs of objects [begin, end) in ascending (object,
/// annotator) order: object unlabelled, annotator affordable, pair
/// unanswered.
void AppendValidPairs(const StateView& view,
                      const std::vector<bool>& annotator_affordable,
                      size_t begin, size_t end, std::vector<Action>* out) {
  const size_t num_annotators = annotator_affordable.size();
  for (size_t i = begin; i < end; ++i) {
    if ((*view.labelled)[i]) continue;
    for (size_t j = 0; j < num_annotators; ++j) {
      if (!annotator_affordable[j]) continue;
      if (view.answers->HasAnswer(static_cast<int>(i), static_cast<int>(j))) {
        continue;
      }
      out->push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
}

/// Surfaces the cache's refresh accounting into the metrics registry by
/// replaying the deltas of its own CumulativeStats since the previous
/// export (`seen`, owned by the agent). The cache accounts a full rebuild
/// as 2n+m misses and 0 hits, so hit/miss deltas stay self-consistent —
/// the old fixed `consulted = 2n+m` formula credited a rebuild with hits
/// it never served and a `misses <= consulted` clamp hid the overflow.
/// The registry counters stay monotonic across Invalidate (which zeroes
/// the cache totals): a regression of the totals just resets `seen`.
void RecordSyncMetrics(const ScoreCache& cache,
                       ScoreCache::CumulativeStats* seen) {
  const ScoreCache::CumulativeStats& cum = cache.cumulative_stats();
  if (cum.syncs < seen->syncs) *seen = ScoreCache::CumulativeStats{};
  const ScoreCache::CumulativeStats delta{
      cum.syncs - seen->syncs,
      cum.full_rebuilds - seen->full_rebuilds,
      cum.objects_dirtied - seen->objects_dirtied,
      cum.blocks_rebuilt - seen->blocks_rebuilt,
      cum.block_hits - seen->block_hits,
      cum.block_misses - seen->block_misses};
  *seen = cum;
  if (!obs::Enabled()) return;
  auto& registry = obs::MetricsRegistry::Get();
  static obs::Counter* const syncs =
      registry.GetCounter("crowdrl.scorecache.syncs");
  static obs::Counter* const full_rebuilds =
      registry.GetCounter("crowdrl.scorecache.full_rebuilds");
  static obs::Counter* const objects_dirtied =
      registry.GetCounter("crowdrl.scorecache.objects_dirtied");
  static obs::Counter* const block_hits =
      registry.GetCounter("crowdrl.scorecache.block_hits");
  static obs::Counter* const block_misses =
      registry.GetCounter("crowdrl.scorecache.block_misses");
  static obs::Gauge* const hit_rate =
      registry.GetGauge("crowdrl.scorecache.hit_rate");
  syncs->Inc(delta.syncs);
  full_rebuilds->Inc(delta.full_rebuilds);
  objects_dirtied->Inc(delta.objects_dirtied);
  block_misses->Inc(delta.block_misses);
  block_hits->Inc(delta.block_hits);
  if (cum.block_hits + cum.block_misses > 0) {
    hit_rate->Set(static_cast<double>(cum.block_hits) /
                  static_cast<double>(cum.block_hits + cum.block_misses));
  }
}

void RecordPruneMetrics(const ShortlistPruner& pruner,
                        ShortlistPruner::Stats* seen_stats, size_t num_pairs,
                        size_t exact_rows) {
  const ShortlistPruner::Stats& cur = pruner.stats();
  const ShortlistPruner::Stats seen = *seen_stats;
  *seen_stats = cur;
  if (!obs::Enabled()) return;
  auto& registry = obs::MetricsRegistry::Get();
  static obs::Counter* const pruned =
      registry.GetCounter("crowdrl.prune.pruned_iterations");
  static obs::Counter* const full =
      registry.GetCounter("crowdrl.prune.full_iterations");
  static obs::Counter* const gate_fallbacks =
      registry.GetCounter("crowdrl.prune.gate_fallbacks");
  static obs::Counter* const precheck_fallbacks =
      registry.GetCounter("crowdrl.prune.precheck_fallbacks");
  static obs::Counter* const exact =
      registry.GetCounter("crowdrl.prune.exact_rows");
  static obs::Counter* const bounded =
      registry.GetCounter("crowdrl.prune.bounded_rows");
  static obs::Gauge* const fraction =
      registry.GetGauge("crowdrl.prune.exact_fraction");
  // Counters replay the pruner's own running stats as deltas.
  pruned->Inc(cur.pruned_iterations >= seen.pruned_iterations
                  ? cur.pruned_iterations - seen.pruned_iterations
                  : 0);
  full->Inc(cur.full_iterations >= seen.full_iterations
                ? cur.full_iterations - seen.full_iterations
                : 0);
  if (cur.gate_fallbacks > seen.gate_fallbacks) {
    gate_fallbacks->Inc(cur.gate_fallbacks - seen.gate_fallbacks);
    // Gate fallbacks are the pruner's "my bounds collapsed" signal; the
    // flight recorder keeps them in the crash timeline (and the watchdog's
    // gate_fallback_burst rule watches the counter above).
    obs::RecordFlightEvent(obs::FlightEventType::kGateFallback, /*scope=*/0,
                           cur.gate_fallbacks);
  }
  precheck_fallbacks->Inc(
      cur.precheck_fallbacks >= seen.precheck_fallbacks
          ? cur.precheck_fallbacks - seen.precheck_fallbacks
          : 0);
  exact->Inc(cur.exact_rows >= seen.exact_rows
                 ? cur.exact_rows - seen.exact_rows
                 : 0);
  bounded->Inc(cur.bounded_rows >= seen.bounded_rows
                   ? cur.bounded_rows - seen.bounded_rows
                   : 0);
  if (num_pairs > 0) {
    fraction->Set(static_cast<double>(exact_rows) /
                  static_cast<double>(num_pairs));
  }
}

/// Outcome of one gate run.
struct GatedSelection {
  bool sound = false;
  std::vector<Assignment> assignments;
  /// Chosen candidates in Commit order (the full path's chosen_indices
  /// order), as actions — the gated engine has no dense candidate matrix
  /// to index into.
  std::vector<Action> chosen_actions;
  /// The contenders: provisionally chosen objects plus every object whose
  /// (upper-bounded) sum crowds the selection cutoff. When the gates
  /// fail, exactly these objects' unscored candidates need exact scores
  /// for the selection to become provable — ladder rung 1 scores them and
  /// retries.
  std::vector<int> suspect_objects;
  /// Weakest chosen object's top-k sum (the selection cutoff) — the
  /// unexpanded-bucket gate separates it from the buckets' sum bounds.
  /// Meaningful whenever at least one object was rankable, even when a
  /// later gate returned sound = false.
  double min_chosen_sum = -std::numeric_limits<double>::infinity();
};

/// Replays PickTopKSumAssignments over merged exact/upper-bound scores and
/// verifies, after the fact, that the selection is provably what full
/// exact scoring would have produced:
///  * every chosen entry is exact (a shortlisted pair);
///  * per chosen object, the smallest chosen score strictly exceeds every
///    upper bound among the object's non-shortlisted candidates (so no
///    unscored pair could enter its top-k), and the chosen scores are
///    pairwise distinct (an exact tie could be ordered differently by the
///    full pass's heap);
///  * the chosen objects' top-k sums are separated from each other and
///    from every non-chosen object's (upper-bounded) sum by kSumGateBand.
/// Any violation returns sound = false and the caller climbs its ladder.
GatedSelection GatedPickTopKSum(const std::vector<Action>& candidates,
                                const std::vector<double>& scores,
                                const std::vector<uint8_t>& is_exact,
                                const std::vector<double>& ub, int k,
                                int num_objects_to_pick,
                                size_t num_objects_total) {
  GatedSelection result;
  if (candidates.empty()) {
    result.sound = true;
    return result;
  }
  const double neg_inf = -std::numeric_limits<double>::infinity();

  // Identical structure to PickTopKSumAssignments: per-object top-k over
  // the merged scores, tracking each object's loosest unscored bound.
  std::vector<int> object_slot(num_objects_total, -1);
  std::vector<TopK<size_t>> per_object;
  std::vector<int> object_ids;
  std::vector<double> max_ub_unscored;
  for (size_t idx = 0; idx < candidates.size(); ++idx) {
    int object = candidates[idx].object;
    CROWDRL_CHECK(object >= 0 &&
                  static_cast<size_t>(object) < num_objects_total);
    int slot = object_slot[static_cast<size_t>(object)];
    if (slot < 0) {
      slot = static_cast<int>(per_object.size());
      object_slot[static_cast<size_t>(object)] = slot;
      per_object.emplace_back(static_cast<size_t>(k));
      object_ids.push_back(object);
      max_ub_unscored.push_back(neg_inf);
    }
    per_object[static_cast<size_t>(slot)].Push(scores[idx], idx);
    if (!is_exact[idx]) {
      max_ub_unscored[static_cast<size_t>(slot)] =
          std::max(max_ub_unscored[static_cast<size_t>(slot)], ub[idx]);
    }
  }

  std::vector<double> sums(per_object.size());
  TopK<size_t> best_objects(static_cast<size_t>(num_objects_to_pick));
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    sums[slot] = per_object[slot].ScoreSum();
    best_objects.Push(sums[slot], slot);
  }
  std::vector<std::pair<double, size_t>> best =
      best_objects.TakeSortedDescending();

  std::vector<uint8_t> chosen_slot(per_object.size(), 0);
  for (const auto& entry : best) chosen_slot[entry.second] = 1;
  const double min_chosen_sum = best.back().first;
  result.min_chosen_sum = min_chosen_sum;
  // Contenders, for rescoring on gate failure: the chosen objects plus
  // anything whose (inflated) sum reaches the cutoff band.
  for (const auto& entry : best) {
    result.suspect_objects.push_back(object_ids[entry.second]);
  }
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    if (chosen_slot[slot]) continue;
    if (min_chosen_sum - sums[slot] <= kSumGateBand) {
      result.suspect_objects.push_back(object_ids[slot]);
    }
  }

  // Sum-separation gate: chosen sums pairwise, and the weakest chosen sum
  // against every non-chosen object's (possibly inflated) sum.
  for (size_t i = 1; i < best.size(); ++i) {
    if (best[i - 1].first - best[i].first <= kSumGateBand) return result;
  }
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    if (chosen_slot[slot]) continue;
    if (min_chosen_sum - sums[slot] <= kSumGateBand) return result;
  }

  for (auto& scored_slot : best) {
    size_t slot = scored_slot.second;
    std::vector<std::pair<double, size_t>> entries =
        per_object[slot].TakeSortedDescending();
    Assignment assignment;
    assignment.object = object_ids[slot];
    for (size_t e = 0; e < entries.size(); ++e) {
      size_t idx = entries[e].second;
      if (!is_exact[idx]) return result;                       // UB chosen.
      if (e > 0 && entries[e - 1].first == entries[e].first) { // Exact tie.
        return result;
      }
      assignment.annotators.push_back(candidates[idx].annotator);
      result.chosen_actions.push_back(candidates[idx]);
    }
    // No unscored candidate of this object may reach its top-k.
    if (!(entries.back().first > max_ub_unscored[slot])) return result;
    result.assignments.push_back(std::move(assignment));
  }
  result.sound = true;
  return result;
}

}  // namespace

DqnAgent::DqnAgent(DqnAgentOptions options)
    : options_(options),
      q_network_(options.q),
      replay_(options.replay_capacity),
      rng_(options.seed),
      epsilon_(options.epsilon) {
  CROWDRL_CHECK(options.train_batch > 0);
  CROWDRL_CHECK(options.train_steps_per_observe >= 0);
  CROWDRL_CHECK(options.ucb_c >= 0.0);
  CROWDRL_CHECK(options.epsilon >= 0.0 && options.epsilon <= 1.0);
  CROWDRL_CHECK(options.epsilon_decay > 0.0 && options.epsilon_decay <= 1.0);
  CROWDRL_CHECK(options.max_bootstrap_candidates > 0);
  CROWDRL_CHECK(options.threads >= 1);
  ShortlistOptions prune_options;
  prune_options.shortlist = options.prune_shortlist;
  pruner_ = ShortlistPruner(prune_options);
  if (options.shared_pool != nullptr) {
    pool_ = options.shared_pool;
  } else if (options.threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options.threads);
  }
}

void DqnAgent::BeginEpisode(size_t num_objects, size_t num_annotators) {
  CROWDRL_CHECK(num_objects > 0 && num_annotators > 0);
  episode_objects_ = num_objects;
  episode_annotators_ = num_annotators;
  selection_counts_.Reset(num_objects, num_annotators);
  total_selections_ = 0;
  pending_.clear();
  epsilon_ = options_.epsilon;
  ResetSelectionState();
  hier_stats_ = HierStats{};
}

void DqnAgent::ResetSelectionState() {
  score_cache_.Invalidate();
  pruner_.Reset(episode_objects_, episode_annotators_);
  sync_metrics_seen_ = ScoreCache::CumulativeStats{};
  score_cache_.ConfigureObjectBuckets(HierEngaged() ? options_.hier_object_bucket
                                                    : 0);
  if (HierEngaged()) {
    HierarchyOptions hier_options;
    hier_options.object_bucket = options_.hier_object_bucket;
    hier_options.annotator_group = options_.hier_annotator_group;
    hierarchy_.Reset(episode_objects_, episode_annotators_, hier_options);
  }
}

bool DqnAgent::GateEligible() const {
  // Epsilon-greedy consumes RNG inside Score, so a gated iteration would
  // desynchronize the stream against the full path; the other modes score
  // deterministically and the gated/full choice is then unobservable.
  return options_.feature_mask.empty() &&
         options_.exploration != ExplorationMode::kEpsilonGreedy;
}

bool DqnAgent::HierEngaged() const {
  return GateEligible() && episode_objects_ > 0 &&
         episode_objects_ * episode_annotators_ >= options_.hier_min_pairs;
}

bool DqnAgent::UseFactorizedHead() const {
  // The factorized head keeps O(|O| x hidden) per-object partials
  // resident — exactly what the tiled scale path must avoid, and its
  // shortlists are small enough that dense assembly wins anyway.
  return options_.factorized_q_head && options_.feature_mask.empty() &&
         !HierEngaged();
}

FeatureBlocks DqnAgent::CacheBlocks() const {
  FeatureBlocks blocks;
  blocks.object_blocks = &score_cache_.object_blocks();
  blocks.annotator_blocks = &score_cache_.annotator_blocks();
  blocks.global_block = score_cache_.global_block();
  blocks.object_version = score_cache_.object_blocks_version();
  blocks.annotator_version = score_cache_.annotator_blocks_version();
  return blocks;
}

void DqnAgent::CheckViewMatchesEpisode(const StateView& view) const {
  CROWDRL_CHECK(view.answers != nullptr);
  CROWDRL_CHECK(view.answers->num_objects() == episode_objects_ &&
                view.answers->num_annotators() == episode_annotators_)
      << "state view shape (" << view.answers->num_objects() << " x "
      << view.answers->num_annotators()
      << ") does not match the episode shape (" << episode_objects_ << " x "
      << episode_annotators_
      << "); selection counts are indexed by the episode shape";
}

std::vector<Action> DqnAgent::EnumerateCandidates(
    const StateView& view, const std::vector<bool>& annotator_affordable,
    size_t max_pairs, Matrix* features) {
  CROWDRL_CHECK(view.answers != nullptr && view.labelled != nullptr);
  const size_t num_objects = view.answers->num_objects();
  CROWDRL_CHECK(annotator_affordable.size() == view.answers->num_annotators());

  std::vector<Action> valid;
  AppendValidPairs(view, annotator_affordable, 0, num_objects, &valid);
  if (valid.size() > max_pairs) {
    // Uniform subsample keeps the scan bounded for huge workloads.
    std::vector<int> keep = rng_.SampleWithoutReplacement(
        static_cast<int>(valid.size()), static_cast<int>(max_pairs));
    std::vector<Action> sampled;
    sampled.reserve(max_pairs);
    for (int idx : keep) sampled.push_back(valid[static_cast<size_t>(idx)]);
    valid = std::move(sampled);
  }

  {
    // Serial: recomputes only the blocks dirtied since the last Sync. The
    // parallel assembly below then only reads the cache.
    CROWDRL_TRACE_SPAN("scorecache.sync");
    score_cache_.Sync(view);
    RecordSyncMetrics(score_cache_, &sync_metrics_seen_);
  }
  if (!options_.feature_mask.empty()) {
    CROWDRL_CHECK(options_.feature_mask.size() == StateFeaturizer::kFeatureDim);
  }
  if (features == nullptr) {
    // Caller never reads dense rows (factorized bootstrap): enumeration
    // and the Sync above are all it needs.
    return valid;
  }

  CROWDRL_TRACE_SPAN("agent.featurize");
  *features = Matrix(valid.size(), StateFeaturizer::kFeatureDim);
  // Each feature row depends only on its own candidate, so chunks write
  // disjoint rows and the parallel result is bit-identical to the serial
  // one at every thread count.
  auto featurize_range = [&](size_t idx_begin, size_t idx_end) {
    for (size_t idx = idx_begin; idx < idx_end; ++idx) {
      double* row = features->Row(idx);
      score_cache_.AssembleRowInto(valid[idx].object, valid[idx].annotator,
                                   row);
      if (!options_.feature_mask.empty()) {
        for (size_t f = 0; f < StateFeaturizer::kFeatureDim; ++f) {
          if (!options_.feature_mask[f]) row[f] = 0.0;
        }
      }
    }
  };
  if (pool_ != nullptr) {
    const size_t lanes = static_cast<size_t>(pool_->num_threads());
    const size_t grain = std::max(
        kFeaturizeGrain, valid.size() / (lanes * kFeaturizeChunksPerLane));
    pool_->ParallelFor(0, valid.size(), grain, featurize_range);
  } else {
    featurize_range(0, valid.size());
  }
  rows_featurized_ += valid.size();
  return valid;
}

ScoredCandidates DqnAgent::Score(
    const StateView& view, const std::vector<bool>& annotator_affordable) {
  CROWDRL_CHECK(episode_objects_ > 0)
      << "BeginEpisode must be called before Score";
  CheckViewMatchesEpisode(view);
  ScoredCandidates out;
  out.actions = EnumerateCandidates(view, annotator_affordable,
                                    std::numeric_limits<size_t>::max(),
                                    &out.features);
  if (out.actions.empty()) return out;

  bool explore_randomly =
      options_.exploration == ExplorationMode::kEpsilonGreedy &&
      rng_.Bernoulli(epsilon_);
  if (explore_randomly) {
    out.scores.resize(out.actions.size());
    for (double& s : out.scores) s = rng_.Uniform();
  } else {
    CROWDRL_TRACE_SPAN("agent.q_forward");
    out.scores = UseFactorizedHead()
                     ? q_network_.PredictBatchFactorized(
                           CacheBlocks(), out.actions, /*use_target=*/false)
                     : q_network_.PredictBatch(out.features);
    if (options_.exploration == ExplorationMode::kUcb) {
      double log_term =
          2.0 * std::log(static_cast<double>(total_selections_) + 1.0);
      for (size_t idx = 0; idx < out.actions.size(); ++idx) {
        const Action& a = out.actions[idx];
        int n = selection_counts_.Get(a.object, a.annotator);
        out.scores[idx] +=
            options_.ucb_c *
            std::sqrt(log_term / (static_cast<double>(n) + 1.0));
      }
    }
  }
  if (options_.exploration == ExplorationMode::kEpsilonGreedy) {
    epsilon_ = std::max(options_.epsilon_min,
                        epsilon_ * options_.epsilon_decay);
  }
  return out;
}

void DqnAgent::Commit(const ScoredCandidates& candidates,
                      const std::vector<size_t>& chosen_indices) {
  for (size_t idx : chosen_indices) {
    CROWDRL_CHECK(idx < candidates.actions.size());
    const Action& action = candidates.actions[idx];
    pending_.push_back(candidates.features.RowVector(idx));
    selection_counts_.Increment(action.object, action.annotator);
    ++total_selections_;
  }
}

std::vector<Assignment> PickTopKSumAssignments(
    const ScoredCandidates& candidates, int k, int num_objects_to_pick,
    size_t num_objects_total, std::vector<size_t>* chosen_indices) {
  CROWDRL_CHECK(k > 0 && num_objects_to_pick > 0);
  CROWDRL_CHECK(chosen_indices != nullptr);
  chosen_indices->clear();
  if (candidates.actions.empty()) return {};

  // Per object: top-k annotators by score.
  std::vector<int> object_slot(num_objects_total, -1);
  std::vector<TopK<size_t>> per_object;
  std::vector<int> object_ids;
  for (size_t idx = 0; idx < candidates.actions.size(); ++idx) {
    int object = candidates.actions[idx].object;
    CROWDRL_CHECK(object >= 0 &&
                  static_cast<size_t>(object) < num_objects_total);
    int slot = object_slot[static_cast<size_t>(object)];
    if (slot < 0) {
      slot = static_cast<int>(per_object.size());
      object_slot[static_cast<size_t>(object)] = slot;
      per_object.emplace_back(static_cast<size_t>(k));
      object_ids.push_back(object);
    }
    per_object[static_cast<size_t>(slot)].Push(candidates.scores[idx], idx);
  }

  // Objects with the largest top-k sums ("MinHeap algorithm").
  TopK<size_t> best_objects(static_cast<size_t>(num_objects_to_pick));
  for (size_t slot = 0; slot < per_object.size(); ++slot) {
    best_objects.Push(per_object[slot].ScoreSum(), slot);
  }

  std::vector<Assignment> assignments;
  for (auto& scored_slot : best_objects.TakeSortedDescending()) {
    size_t slot = scored_slot.second;
    Assignment assignment;
    assignment.object = object_ids[slot];
    for (auto& scored_idx : per_object[slot].TakeSortedDescending()) {
      size_t idx = scored_idx.second;
      assignment.annotators.push_back(candidates.actions[idx].annotator);
      chosen_indices->push_back(idx);
    }
    assignments.push_back(std::move(assignment));
  }
  return assignments;
}

std::vector<Assignment> DqnAgent::SelectBatch(
    const StateView& view, int k, int num_objects_to_pick,
    const std::vector<bool>& annotator_affordable) {
  if (GateEligible()) {
    return SelectGated(view, k, num_objects_to_pick, annotator_affordable);
  }
  ScoredCandidates candidates = Score(view, annotator_affordable);
  std::vector<size_t> chosen;
  std::vector<Assignment> assignments;
  {
    CROWDRL_TRACE_SPAN("agent.topk");
    assignments = PickTopKSumAssignments(candidates, k, num_objects_to_pick,
                                         episode_objects_, &chosen);
  }
  Commit(candidates, chosen);
  return assignments;
}

std::vector<double> DqnAgent::ExactQ(const std::vector<Action>& pairs) {
  CROWDRL_TRACE_SPAN("agent.q_forward");
  if (UseFactorizedHead()) {
    return q_network_.PredictBatchFactorized(CacheBlocks(), pairs,
                                             /*use_target=*/false);
  }
  // Dense rows are assembled block by block inside the forward, on the Q
  // pool's lanes (AssembleRowInto only reads the synced cache), so no
  // pairs x features matrix is ever resident.
  std::vector<double> q = q_network_.PredictBatch(
      pairs.size(), [&](size_t r0, size_t r1, Matrix* block) {
        for (size_t i = r0; i < r1; ++i) {
          score_cache_.AssembleRowInto(pairs[i].object, pairs[i].annotator,
                                       block->Row(i - r0));
        }
      });
  rows_featurized_ += pairs.size();
  return q;
}

std::vector<Assignment> DqnAgent::SelectGated(
    const StateView& view, int k, int num_objects_to_pick,
    const std::vector<bool>& annotator_affordable) {
  CROWDRL_CHECK(episode_objects_ > 0)
      << "BeginEpisode must be called before SelectBatch";
  CROWDRL_CHECK(k > 0 && num_objects_to_pick > 0);
  CheckViewMatchesEpisode(view);
  CROWDRL_CHECK(view.labelled != nullptr);
  CROWDRL_CHECK(annotator_affordable.size() == episode_annotators_);
  {
    CROWDRL_TRACE_SPAN("scorecache.sync");
    score_cache_.Sync(view);
    RecordSyncMetrics(score_cache_, &sync_metrics_seen_);
  }
  pruner_.BeginIteration(score_cache_);
  const size_t train_steps = q_network_.train_steps();
  const double neg_inf = -std::numeric_limits<double>::infinity();

  // Exploration bonus: per pair exact, in closed form from current counts
  // (the same expression as Score's, so exact scores reproduce full
  // scoring bit for bit); tile bounds charge the grid-wide maximum,
  // reached at selection count zero.
  const bool ucb = options_.exploration == ExplorationMode::kUcb;
  const double log_term =
      ucb ? 2.0 * std::log(static_cast<double>(total_selections_) + 1.0)
          : 0.0;
  const double bonus_max = ucb ? options_.ucb_c * std::sqrt(log_term) : 0.0;

  // Grid size decides the initial candidate set. Untiled, one bucket spans
  // every object and starts expanded; tiled, the coarse-to-fine descent
  // below picks the first buckets and the rest stay bounded per bucket.
  const bool tiled = HierEngaged();
  const size_t num_buckets = tiled ? hierarchy_.num_buckets() : 1;
  std::vector<uint8_t> expanded(num_buckets, tiled ? 0 : 1);
  std::vector<double> bucket_bound(num_buckets, neg_inf);
  const auto bound_buckets = [&]() {
    for (size_t b = 0; b < num_buckets; ++b) {
      bucket_bound[b] = hierarchy_.BucketLive(b)
                            ? hierarchy_.BucketBound(b, score_cache_, pruner_,
                                                     train_steps, bonus_max)
                            : neg_inf;
    }
  };
  if (tiled) {
    score_cache_.RefreshBucketBoxes();
    hierarchy_.BeginIteration(score_cache_, *view.labelled,
                              annotator_affordable);
    ++hier_stats_.iterations;
    std::vector<size_t> order;
    size_t live_unlabelled = 0;
    for (size_t b = 0; b < num_buckets; ++b) {
      if (!hierarchy_.BucketLive(b)) continue;
      order.push_back(b);
      live_unlabelled += hierarchy_.bucket_unlabelled(b);
    }
    hier_stats_.live_buckets += order.size();

    // Refresh every live tile whose representative record is stale, in
    // one exact batch — afterwards every live tile's bound is finite.
    std::vector<std::pair<size_t, size_t>> stale_tiles;
    std::vector<Action> stale_reps;
    hierarchy_.CollectStaleReps(score_cache_, train_steps, &stale_tiles,
                                &stale_reps);
    if (!stale_tiles.empty()) {
      CROWDRL_TRACE_SPAN("agent.hier_reps");
      std::vector<double> rep_q = ExactQ(stale_reps);
      for (size_t i = 0; i < stale_tiles.size(); ++i) {
        hierarchy_.RecordRep(stale_tiles[i].first, stale_tiles[i].second,
                             rep_q[i], score_cache_, train_steps, &pruner_);
      }
      hier_stats_.rep_refreshes += stale_tiles.size();
    }

    // Initial descent: expand highest-bound buckets until the set covers
    // the requested objects and the exact-scoring target.
    bound_buckets();
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (bucket_bound[a] != bucket_bound[b]) {
        return bucket_bound[a] > bucket_bound[b];
      }
      return a < b;
    });
    const size_t target_pairs =
        (options_.prune_shortlist > 0
             ? options_.prune_shortlist
             : std::max(kHierTargetPairsFloor,
                        static_cast<size_t>(k) *
                            static_cast<size_t>(num_objects_to_pick) * 8)) *
        pruner_.boost();
    size_t num_affordable = 0;
    for (bool a : annotator_affordable) num_affordable += a ? 1 : 0;
    const size_t objects_needed =
        std::min(static_cast<size_t>(num_objects_to_pick), live_unlabelled);
    size_t covered_objects = 0;
    size_t covered_pairs = 0;  // Upper estimate; exact count comes below.
    for (size_t b : order) {
      expanded[b] = 1;
      covered_objects += hierarchy_.bucket_unlabelled(b);
      covered_pairs += hierarchy_.bucket_unlabelled(b) * num_affordable;
      if (covered_objects >= objects_needed &&
          covered_pairs >= target_pairs) {
        break;
      }
    }
  }

  // The iteration's candidates: the expanded buckets' valid pairs in
  // ascending (object, annotator) order — the order full scoring
  // enumerates in. An object's candidates all live in one bucket, so each
  // per-object top-k sees the identical push sequence as full scoring and
  // heap tie-breaks cannot diverge. Exact raw Q values are kept alongside
  // (no training runs inside an iteration, so they stay valid and no pair
  // is ever forwarded twice).
  std::vector<Action> pairs;
  std::vector<double> bonus;
  std::vector<double> raw;
  std::vector<uint8_t> is_exact;
  std::vector<double> ub;
  size_t exact_count = 0;
  const auto enumerate = [&]() {
    std::vector<Action> next;
    for (size_t b = 0; b < num_buckets; ++b) {
      if (!expanded[b]) continue;
      const auto [begin, end] = tiled ? hierarchy_.BucketRange(b)
                                      : std::make_pair(size_t{0},
                                                       episode_objects_);
      AppendValidPairs(view, annotator_affordable, begin, end, &next);
    }
    // Carry the exact scores over: the previous set is an ordered subset.
    std::vector<double> next_raw(next.size(), 0.0);
    std::vector<uint8_t> next_exact(next.size(), 0);
    for (size_t i = 0, old = 0; i < next.size() && old < pairs.size(); ++i) {
      if (next[i] == pairs[old]) {
        next_raw[i] = raw[old];
        next_exact[i] = is_exact[old];
        ++old;
      }
    }
    pairs = std::move(next);
    raw = std::move(next_raw);
    is_exact = std::move(next_exact);
    bonus.assign(pairs.size(), 0.0);
    if (ucb) {
      for (size_t idx = 0; idx < pairs.size(); ++idx) {
        const Action& a = pairs[idx];
        int n = selection_counts_.Get(a.object, a.annotator);
        bonus[idx] = options_.ucb_c *
                     std::sqrt(log_term / (static_cast<double>(n) + 1.0));
      }
    }
  };
  enumerate();

  // Exact-scores the listed candidates. With `precheck`, every new exact
  // score is checked against the bound it was admitted under; a violation
  // adapts alpha/beta (tile records first, then the per-pair entries) and
  // the count is returned so the caller re-bounds.
  const auto score_exact = [&](const std::vector<uint32_t>& batch,
                               bool precheck) -> size_t {
    std::vector<Action> actions;
    std::vector<double> batch_ub;
    std::vector<double> batch_bonus;
    actions.reserve(batch.size());
    for (uint32_t idx : batch) {
      actions.push_back(pairs[idx]);
      if (precheck) {
        batch_ub.push_back(ub[idx]);
        batch_bonus.push_back(bonus[idx]);
      }
    }
    std::vector<double> q = ExactQ(actions);
    if (tiled) {
      hier_stats_.scored_pairs += actions.size();
      for (size_t s = 0; precheck && s < actions.size(); ++s) {
        if (q[s] + batch_bonus[s] > batch_ub[s]) {
          hierarchy_.ObserveTileViolation(
              hierarchy_.BucketOf(actions[s].object),
              hierarchy_.GroupOf(actions[s].annotator), q[s], score_cache_,
              train_steps, &pruner_);
        }
      }
    }
    const size_t violations = pruner_.RecordExact(
        score_cache_, train_steps, actions, q,
        precheck ? &batch_ub : nullptr, precheck ? &batch_bonus : nullptr);
    for (size_t s = 0; s < batch.size(); ++s) {
      raw[batch[s]] = q[s];
      is_exact[batch[s]] = 1;
    }
    exact_count += batch.size();
    return violations;
  };

  GatedSelection selection;
  bool served = false;
  bool gate_failed = false;
  // One gate fallback per selection, noted when the ladder first climbs
  // past rung 1: it grows the pruner's shortlist boost.
  bool fell_back = false;
  const auto note_fallback = [&]() {
    if (!fell_back) pruner_.NoteGateFallback();
    fell_back = true;
  };
  bool need_shortlist = true;
  bool rebound = false;  // Alpha/beta adapted: the bucket bounds are stale.
  int rounds = 0;
  int suspect_rounds = 0;
  const auto note_violation = [&]() {
    pruner_.NotePrecheckFallback();
    need_shortlist = rebound = true;
    return rounds++ >= kMaxRounds;
  };
  for (;;) {
    if (need_shortlist) {
      // Bound every candidate — the pair's own stale entry, tightened by
      // its tile's bound when a tiling exists — and exact-score the
      // highest-bounded unscored ones. Must-score pairs (+inf) are always
      // admitted on top of the shortlist size.
      need_shortlist = false;
      if (tiled) {
        ++hier_stats_.rounds;
        if (rebound) bound_buckets();
      }
      rebound = false;
      size_t must_score = 0;
      {
        CROWDRL_TRACE_SPAN("agent.prune_bounds");
        pruner_.UpperBounds(score_cache_, train_steps, pairs, bonus, &ub);
        for (size_t idx = 0; idx < pairs.size(); ++idx) {
          if (tiled) {
            const Action& a = pairs[idx];
            ub[idx] = std::min(
                ub[idx], hierarchy_.TileBound(hierarchy_.BucketOf(a.object),
                                              hierarchy_.GroupOf(a.annotator),
                                              score_cache_, pruner_,
                                              train_steps, bonus[idx]));
          }
          if (!is_exact[idx] && std::isinf(ub[idx])) ++must_score;
        }
      }
      std::vector<uint32_t> shortlist;
      {
        CROWDRL_TRACE_SPAN("agent.prune_shortlist");
        const size_t unscored = pairs.size() - exact_count;
        const size_t size = pruner_.ShortlistSize(pairs.size(), must_score);
        if (size >= unscored) {
          for (size_t idx = 0; idx < pairs.size(); ++idx) {
            if (!is_exact[idx]) shortlist.push_back(static_cast<uint32_t>(idx));
          }
        } else {
          // Reused scratch: Reset keeps the heap and sort buffers' capacity
          // across rounds, so the cut allocates nothing once warm.
          shortlist_topk_.Reset(size);
          for (size_t idx = 0; idx < pairs.size(); ++idx) {
            if (!is_exact[idx]) {
              shortlist_topk_.Push(ub[idx], static_cast<uint32_t>(idx));
            }
          }
          shortlist_topk_.TakeSortedDescendingInto(&shortlist_scratch_);
          for (const auto& entry : shortlist_scratch_) {
            shortlist.push_back(entry.second);
          }
          std::sort(shortlist.begin(), shortlist.end());
        }
      }
      if (!shortlist.empty() && score_exact(shortlist, true) > 0) {
        if (note_violation()) break;
        continue;
      }
    }

    bool unexpanded_live = false;
    for (size_t b = 0; tiled && b < num_buckets; ++b) {
      if (hierarchy_.BucketLive(b) && !expanded[b]) unexpanded_live = true;
    }
    // Nothing left to bound: full scoring's answer is already at hand.
    if (exact_count == pairs.size() && !unexpanded_live) break;

    std::vector<double> merged(pairs.size());
    for (size_t idx = 0; idx < pairs.size(); ++idx) {
      merged[idx] = is_exact[idx] ? raw[idx] + bonus[idx] : ub[idx];
    }
    {
      CROWDRL_TRACE_SPAN("agent.topk");
      selection = GatedPickTopKSum(pairs, merged, is_exact, ub, k,
                                   num_objects_to_pick, episode_objects_);
    }
    // Unexpanded-bucket gate (vacuous without a tiling): every live
    // unexpanded bucket's best top-k sum — k times its bound when
    // positive, the bound itself otherwise (j <= k negative terms sum to
    // at most one of them) — must sit clearly below the selection cutoff.
    // A selection short of objects has no cutoff: any bucket with a valid
    // pair could still contribute one.
    std::vector<size_t> offenders;
    if (selection.sound) {
      const double cutoff = selection.assignments.size() <
                                    static_cast<size_t>(num_objects_to_pick)
                                ? neg_inf
                                : selection.min_chosen_sum;
      for (size_t b = 0; tiled && b < num_buckets; ++b) {
        if (!hierarchy_.BucketLive(b) || expanded[b]) continue;
        const double sum_bound = bucket_bound[b] >= 0.0
                                     ? static_cast<double>(k) * bucket_bound[b]
                                     : bucket_bound[b];
        if (cutoff - sum_bound <= kSumGateBand) offenders.push_back(b);
      }
      if (offenders.empty()) {
        served = true;
        break;
      }
    }
    gate_failed = true;

    // Rung 1: exact-score the suspect objects' unscored candidates — a
    // handful of objects, so a tiny batch — and re-run the gate.
    if (!selection.sound && suspect_rounds < kSuspectRounds) {
      std::vector<uint8_t> suspect(episode_objects_, 0);
      for (int object : selection.suspect_objects) {
        suspect[static_cast<size_t>(object)] = 1;
      }
      std::vector<uint32_t> batch;
      for (size_t idx = 0; idx < pairs.size(); ++idx) {
        if (!is_exact[idx] && suspect[static_cast<size_t>(pairs[idx].object)]) {
          batch.push_back(static_cast<uint32_t>(idx));
        }
      }
      // Nothing to rescore (an exact tie or exact sum collision), or the
      // suspects cover so much of the set that the later rungs are the
      // honest answer.
      if (!batch.empty() && batch.size() <= pairs.size() / 4) {
        ++suspect_rounds;
        if (score_exact(batch, true) > 0 && note_violation()) break;
        continue;
      }
    }
    // Rung 2: expand the buckets whose bounds threaten the cutoff.
    note_fallback();
    if (!offenders.empty() && rounds < kMaxRounds) {
      ++rounds;
      for (size_t b : offenders) expanded[b] = 1;
      enumerate();
      need_shortlist = true;
      continue;
    }
    // Rung 3: exact-score the rest of the expanded set, keeping the
    // unexpanded remainder bounded. Without a remainder this is rung 4.
    if (unexpanded_live && exact_count < pairs.size()) {
      std::vector<uint32_t> batch;
      for (size_t idx = 0; idx < pairs.size(); ++idx) {
        if (!is_exact[idx]) batch.push_back(static_cast<uint32_t>(idx));
      }
      if (score_exact(batch, true) > 0 && note_violation()) break;
      continue;
    }
    break;
  }

  std::vector<Assignment> assignments;
  std::vector<Action> chosen;
  if (served) {
    assignments = std::move(selection.assignments);
    chosen = std::move(selection.chosen_actions);
    pruner_.NotePrunedSuccess(exact_count, pairs.size() - exact_count,
                              gate_failed);
    if (tiled) ++hier_stats_.gated_iterations;
  } else {
    // Rung 4: exact-score every live pair. The candidate list and scores
    // are then exactly Score()'s, so PickTopKSumAssignments selects (and
    // tie-breaks) exactly as full scoring does.
    if (gate_failed) note_fallback();
    if (tiled) {
      for (size_t b = 0; b < num_buckets; ++b) {
        if (hierarchy_.BucketLive(b)) expanded[b] = 1;
      }
      enumerate();
    }
    std::vector<uint32_t> batch;
    for (size_t idx = 0; idx < pairs.size(); ++idx) {
      if (!is_exact[idx]) batch.push_back(static_cast<uint32_t>(idx));
    }
    if (!batch.empty()) score_exact(batch, false);
    ScoredCandidates full;
    full.actions = pairs;
    full.scores.resize(pairs.size());
    for (size_t idx = 0; idx < pairs.size(); ++idx) {
      full.scores[idx] = raw[idx] + bonus[idx];
    }
    std::vector<size_t> chosen_indices;
    {
      CROWDRL_TRACE_SPAN("agent.topk");
      assignments = PickTopKSumAssignments(
          full, k, num_objects_to_pick, episode_objects_, &chosen_indices);
    }
    for (size_t idx : chosen_indices) chosen.push_back(pairs[idx]);
    pruner_.NoteFullPass();
    if (tiled) ++hier_stats_.full_fallbacks;
  }

  // Commit: identical bookkeeping (and identical feature bits —
  // AssembleRowInto is a pure copy of the same cached blocks Score's
  // features matrix is built from).
  for (const Action& action : chosen) {
    std::vector<double> row(StateFeaturizer::kFeatureDim);
    score_cache_.AssembleRowInto(action.object, action.annotator, row.data());
    pending_.push_back(std::move(row));
    selection_counts_.Increment(action.object, action.annotator);
    ++total_selections_;
  }
  if (tiled) {
    hier_stats_.enumerated_pairs += pairs.size();
    for (uint8_t e : expanded) hier_stats_.expanded_buckets += e;
  }
  RecordPruneMetrics(pruner_, &prune_metrics_seen_, pairs.size(),
                     exact_count);
  return assignments;
}

std::vector<Action> DqnAgent::EnumerateBootstrapSublinear(
    const StateView& view, const std::vector<bool>& annotator_affordable,
    size_t max_pairs, Matrix* features) {
  CROWDRL_CHECK(view.answers != nullptr && view.labelled != nullptr);
  const size_t num_objects = view.answers->num_objects();
  const size_t num_annotators = view.answers->num_annotators();
  CROWDRL_CHECK(annotator_affordable.size() == num_annotators);

  size_t num_affordable = 0;
  for (bool a : annotator_affordable) num_affordable += a ? 1 : 0;

  // Valid-pair count and per-object first ranks in O(|O| + answers): an
  // unlabelled object's valid pairs are the affordable annotators minus
  // its affordable answers.
  std::vector<std::pair<int, uint64_t>> first_rank;
  uint64_t count = 0;
  for (size_t i = 0; i < num_objects; ++i) {
    if ((*view.labelled)[i]) continue;
    size_t overlap = 0;
    for (const auto& entry : view.answers->AnswersFor(static_cast<int>(i))) {
      if (annotator_affordable[static_cast<size_t>(entry.first)]) ++overlap;
    }
    const uint64_t valid_here = num_affordable - overlap;
    if (valid_here == 0) continue;
    first_rank.emplace_back(static_cast<int>(i), count);
    count += valid_here;
  }

  {
    CROWDRL_TRACE_SPAN("scorecache.sync");
    score_cache_.Sync(view);
    RecordSyncMetrics(score_cache_, &sync_metrics_seen_);
  }

  std::vector<Action> valid;
  if (count <= max_pairs) {
    // Below the cap this reproduces EnumerateCandidates' list exactly:
    // ascending (object, annotator), no RNG.
    valid.reserve(count);
    for (const auto& entry : first_rank) {
      const int object = entry.first;
      for (size_t j = 0; j < num_annotators; ++j) {
        if (!annotator_affordable[j]) continue;
        if (view.answers->HasAnswer(object, static_cast<int>(j))) continue;
        valid.push_back({object, static_cast<int>(j)});
      }
    }
  } else {
    std::vector<uint64_t> ranks =
        rng_.SampleRanksWithoutReplacement(count, max_pairs);
    valid.reserve(ranks.size());
    for (uint64_t rank : ranks) {
      auto it = std::upper_bound(
          first_rank.begin(), first_rank.end(), rank,
          [](uint64_t r, const std::pair<int, uint64_t>& e) {
            return r < e.second;
          });
      CROWDRL_CHECK(it != first_rank.begin());
      --it;
      const int object = it->first;
      uint64_t remaining = rank - it->second;
      int annotator = -1;
      for (size_t j = 0; j < num_annotators; ++j) {
        if (!annotator_affordable[j] ||
            view.answers->HasAnswer(object, static_cast<int>(j))) {
          continue;
        }
        if (remaining == 0) {
          annotator = static_cast<int>(j);
          break;
        }
        --remaining;
      }
      CROWDRL_CHECK(annotator >= 0);
      valid.push_back({object, annotator});
    }
  }

  if (features != nullptr) {
    CROWDRL_TRACE_SPAN("agent.featurize");
    *features = Matrix(valid.size(), StateFeaturizer::kFeatureDim);
    for (size_t idx = 0; idx < valid.size(); ++idx) {
      score_cache_.AssembleRowInto(valid[idx].object, valid[idx].annotator,
                                   features->Row(idx));
    }
    rows_featurized_ += valid.size();
  }
  return valid;
}

void DqnAgent::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  q_network_.SaveState(writer);
  replay_.SaveState(writer);
  writer->WriteString(rng_.SaveStateString());
  writer->WriteDouble(epsilon_);
  writer->WriteSize(episode_objects_);
  writer->WriteSize(episode_annotators_);
  selection_counts_.SaveState(writer);
  writer->WriteSize(total_selections_);
  writer->WriteSize(pending_.size());
  for (const std::vector<double>& features : pending_) {
    writer->WriteDoubleVector(features);
  }
}

Status DqnAgent::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  CROWDRL_RETURN_IF_ERROR(q_network_.LoadState(reader));
  CROWDRL_RETURN_IF_ERROR(replay_.LoadState(reader));
  std::string rng_state;
  CROWDRL_RETURN_IF_ERROR(reader->ReadString(&rng_state));
  CROWDRL_RETURN_IF_ERROR(rng_.LoadStateString(rng_state));
  CROWDRL_RETURN_IF_ERROR(reader->ReadDouble(&epsilon_));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&episode_objects_));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&episode_annotators_));
  CROWDRL_RETURN_IF_ERROR(selection_counts_.LoadState(
      reader, episode_objects_, episode_annotators_));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&total_selections_));
  size_t num_pending = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&num_pending));
  std::vector<std::vector<double>> pending(num_pending);
  for (std::vector<double>& features : pending) {
    CROWDRL_RETURN_IF_ERROR(reader->ReadDoubleVector(&features));
  }
  pending_ = std::move(pending);
  // The score cache is not serialized: its blocks are pure functions of
  // the StateView, so dropping it here and letting the next Sync rebuild
  // reproduces the same bits on the restored run. The pruner's stale
  // table likewise restarts with every pair must-score (see shortlist.h
  // for why that keeps restores bit-identical), and the metrics snapshot
  // resets with the cache's cumulative stats.
  ResetSelectionState();
  return Status::Ok();
}

void DqnAgent::Observe(double reward, const StateView& next_view,
                       const std::vector<bool>& annotator_affordable,
                       bool terminal) {
  ObservePerPair(std::vector<double>(pending_.size(), reward), next_view,
                 annotator_affordable, terminal);
}

void DqnAgent::ObservePerPair(const std::vector<double>& rewards,
                              const StateView& next_view,
                              const std::vector<bool>& annotator_affordable,
                              bool terminal) {
  CROWDRL_CHECK(rewards.size() == pending_.size())
      << "need one reward per pending pair";
  ObserveOldestPairs(pending_.size(), rewards, next_view,
                     annotator_affordable, terminal);
}

void DqnAgent::ObserveOldestPairs(
    size_t count, const std::vector<double>& rewards,
    const StateView& next_view,
    const std::vector<bool>& annotator_affordable, bool terminal) {
  CROWDRL_CHECK(count <= pending_.size())
      << "cannot observe more pairs than are pending";
  CROWDRL_CHECK(rewards.size() == count)
      << "need one reward per observed pair";
  CheckViewMatchesEpisode(next_view);
  double next_max_q = 0.0;
  if (!terminal) {
    // The factorized bootstrap reads the cached blocks directly, so the
    // dense per-row assembly would be pure waste: skip it (the Sync
    // inside EnumerateCandidates still runs either way).
    bool factorized = UseFactorizedHead();
    Matrix features;
    // At hierarchical scale the dense enumerate-then-subsample bootstrap
    // would walk the full pair grid; the sublinear variant counts valid
    // pairs per object and rank-samples without materializing them. Below
    // the cap it produces the identical candidate list with no RNG drawn.
    std::vector<Action> candidates =
        HierEngaged()
            ? EnumerateBootstrapSublinear(next_view, annotator_affordable,
                                          options_.max_bootstrap_candidates,
                                          factorized ? nullptr : &features)
            : EnumerateCandidates(next_view, annotator_affordable,
                                  options_.max_bootstrap_candidates,
                                  factorized ? nullptr : &features);
    if (!candidates.empty()) {
      std::vector<double> target_q =
          factorized ? q_network_.PredictBatchFactorized(
                           CacheBlocks(), candidates, /*use_target=*/true)
                     : q_network_.TargetPredictBatch(features);
      if (options_.q.double_dqn) {
        // Double DQN: pick the action with the online network, evaluate
        // it with the target network.
        std::vector<double> online_q =
            factorized ? q_network_.PredictBatchFactorized(
                             CacheBlocks(), candidates, /*use_target=*/false)
                       : q_network_.PredictBatch(features);
        size_t best = 0;
        for (size_t i = 1; i < online_q.size(); ++i) {
          if (online_q[i] > online_q[best]) best = i;
        }
        next_max_q = target_q[best];
      } else {
        next_max_q = *std::max_element(target_q.begin(), target_q.end());
      }
    }
  }
  for (size_t i = 0; i < count; ++i) {
    replay_.Add(Transition{std::move(pending_[i]), rewards[i], next_max_q,
                           terminal});
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(count));

  if (replay_.size() < options_.min_replay_before_training) return;
  for (int step = 0; step < options_.train_steps_per_observe; ++step) {
    q_network_.TrainBatch(replay_.Sample(options_.train_batch, &rng_));
  }
}

void DqnAgent::NoteAnnotatorDisconnected(int annotator) {
  if (episode_annotators_ == 0) return;  // No episode yet.
  CROWDRL_CHECK(annotator >= 0 &&
                static_cast<size_t>(annotator) < episode_annotators_);
  pruner_.EvictAnnotator(annotator);
}

}  // namespace crowdrl::rl
