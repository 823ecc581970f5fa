#include "rl/dqn_agent.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/topk.h"

namespace crowdrl::rl {

namespace {

/// Minimum candidates per parallel featurization chunk. The actual grain
/// adapts upward to candidates / (lanes * kFeaturizeChunksPerLane): the
/// threadpool task_wait_ns/task_run_ns histograms showed that at the big
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

/// Re-bounding rounds (after a precheck violation) plus bucket-expansion
/// rounds per selection before the engine resorts to full scoring. A
/// handful covers any realistic contention; the cap only bounds
/// pathological drift.
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
                        ShortlistPruner::Stats* seen_stats) {
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
}

/// Valid pairs per chunk of the gated engine's scoring pass, about: a
/// chunk is a run of whole objects, and each runs one factorized forward
/// on one lane of the Q pool.
constexpr size_t kGateChunkPairs = 8192;

/// The objects with the largest top-k sums ("MinHeap algorithm"), as
/// (sum, slot), best first. Serial, in slot order.
std::vector<std::pair<double, size_t>> BestSlots(
    const std::vector<double>& sums, int num_objects_to_pick) {
  TopK<size_t> best(static_cast<size_t>(num_objects_to_pick));
  for (size_t slot = 0; slot < sums.size(); ++slot) {
    best.Push(sums[slot], slot);
  }
  return best.TakeSortedDescending();
}

/// Outcome of one pick over the gated engine's per-object slots.
struct GatedSelection {
  bool sound = false;
  std::vector<Assignment> assignments;
  /// Chosen pairs in Commit order (the full path's chosen_indices order).
  std::vector<Action> chosen_actions;
  /// Weakest chosen object's top-k sum (the selection cutoff) — the
  /// unexpanded-bucket gate separates it from the buckets' sum bounds.
  /// Meaningful when sound.
  double min_chosen_sum = -std::numeric_limits<double>::infinity();
};

/// PickTopKSumAssignments over per-object top-k slots (slot = object,
/// payload = annotator): the best `num_objects_to_pick` of `objects`
/// (ascending, with their top-k `sums`), each with its top-k annotators
/// best first. Every slot holds its object's full push sequence and the
/// objects are ranked in full scoring's order, so once every live bucket
/// is scored this is full scoring's selection, tie-breaks included. With
/// `prove`, the pick must also be full scoring's whatever the unlisted
/// objects rank:
///  * the chosen objects' sums are separated from each other and from
///    every other listed object's sum by kSumGateBand;
///  * no exact tie sits inside a chosen object's top-k (the full pass's
///    heap could order it differently).
/// A violation returns sound = false. The caller bounds the unlisted
/// objects against `min_chosen_sum`.
GatedSelection PickObjects(const SlotTopK<int>& per_object,
                           const std::vector<int>& objects,
                           const std::vector<double>& sums,
                           int num_objects_to_pick, bool prove) {
  GatedSelection result;
  const std::vector<std::pair<double, size_t>> best =
      BestSlots(sums, num_objects_to_pick);
  if (prove && !best.empty()) {
    result.min_chosen_sum = best.back().first;
    for (size_t i = 1; i < best.size(); ++i) {
      if (best[i - 1].first - best[i].first <= kSumGateBand) return result;
    }
    std::vector<uint8_t> chosen(sums.size(), 0);
    for (const auto& entry : best) chosen[entry.second] = 1;
    for (size_t slot = 0; slot < sums.size(); ++slot) {
      if (!chosen[slot] &&
          result.min_chosen_sum - sums[slot] <= kSumGateBand) {
        return result;
      }
    }
  }
  std::vector<std::pair<double, int>> entries;
  for (const auto& scored_slot : best) {
    const int object = objects[scored_slot.second];
    per_object.SortedDescendingInto(static_cast<size_t>(object), &entries);
    Assignment assignment;
    assignment.object = object;
    for (size_t e = 0; e < entries.size(); ++e) {
      if (prove && e > 0 && entries[e - 1].first == entries[e].first) {
        return result;
      }
      assignment.annotators.push_back(entries[e].second);
      result.chosen_actions.push_back({object, entries[e].second});
    }
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

bool DqnAgent::HierEngaged() const {
  // Only agents the gate can serve tile. Epsilon-greedy consumes RNG
  // inside Score, so a gated iteration would desynchronize the stream
  // against the full path; the other modes score deterministically and
  // the gated/full choice is then unobservable. Masked agents are an
  // ablation configuration and keep the full pass too.
  return options_.feature_mask.empty() &&
         options_.exploration != ExplorationMode::kEpsilonGreedy &&
         episode_objects_ > 0 &&
         episode_objects_ * episode_annotators_ >= options_.hier_min_pairs;
}

FeatureBlocks DqnAgent::CacheBlocks() const {
  FeatureBlocks blocks;
  blocks.object_blocks = &score_cache_.object_blocks();
  blocks.annotator_blocks = &score_cache_.annotator_blocks();
  blocks.global_block = score_cache_.global_block();
  blocks.feature_mask = &options_.feature_mask;
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
    // Caller never reads dense rows (the full selection pass, the
    // bootstrap): enumeration and the Sync above are all it needs.
    return valid;
  }

  CROWDRL_TRACE_SPAN("agent.featurize");
  *features = Matrix(valid.size(), StateFeaturizer::kFeatureDim);
  // Each feature row depends only on its own candidate, so chunks write
  // disjoint rows and the parallel result is bit-identical to the serial
  // one at every thread count.
  auto featurize_range = [&](size_t idx_begin, size_t idx_end) {
    for (size_t idx = idx_begin; idx < idx_end; ++idx) {
      AssembleRow(valid[idx], features->Row(idx));
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

void DqnAgent::AssembleRow(const Action& pair, double* row) const {
  score_cache_.AssembleRowInto(pair.object, pair.annotator, row);
  if (options_.feature_mask.empty()) return;
  for (size_t f = 0; f < StateFeaturizer::kFeatureDim; ++f) {
    if (!options_.feature_mask[f]) row[f] = 0.0;
  }
}

ScoredCandidates DqnAgent::Score(
    const StateView& view, const std::vector<bool>& annotator_affordable) {
  return ScoreValidPairs(view, annotator_affordable, /*with_features=*/true);
}

ScoredCandidates DqnAgent::ScoreValidPairs(
    const StateView& view, const std::vector<bool>& annotator_affordable,
    bool with_features) {
  CROWDRL_CHECK(episode_objects_ > 0)
      << "BeginEpisode must be called before Score or SelectBatch";
  CheckViewMatchesEpisode(view);
  ScoredCandidates out;
  out.actions = EnumerateCandidates(view, annotator_affordable,
                                    std::numeric_limits<size_t>::max(),
                                    with_features ? &out.features : nullptr);
  if (out.actions.empty()) return out;

  bool explore_randomly =
      options_.exploration == ExplorationMode::kEpsilonGreedy &&
      rng_.Bernoulli(epsilon_);
  if (explore_randomly) {
    out.scores.resize(out.actions.size());
    for (double& s : out.scores) s = rng_.Uniform();
  } else {
    out.scores = ExactQ(out.actions);
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
  std::vector<Action> chosen;
  chosen.reserve(chosen_indices.size());
  for (size_t idx : chosen_indices) {
    CROWDRL_CHECK(idx < candidates.actions.size());
    chosen.push_back(candidates.actions[idx]);
  }
  CommitActions(chosen);
}

std::vector<Assignment> PickTopKSumAssignments(
    const ScoredCandidates& candidates, int k, int num_objects_to_pick,
    size_t num_objects_total, std::vector<size_t>* chosen_indices) {
  CROWDRL_CHECK(k > 0 && num_objects_to_pick > 0);
  CROWDRL_CHECK(chosen_indices != nullptr);
  chosen_indices->clear();
  if (candidates.actions.empty()) return {};

  // Per object, in order of first appearance: top-k annotators by score.
  std::vector<int> object_slot(num_objects_total, -1);
  std::vector<int> object_ids;
  for (const Action& action : candidates.actions) {
    CROWDRL_CHECK(action.object >= 0 &&
                  static_cast<size_t>(action.object) < num_objects_total);
    int& slot = object_slot[static_cast<size_t>(action.object)];
    if (slot < 0) {
      slot = static_cast<int>(object_ids.size());
      object_ids.push_back(action.object);
    }
  }
  SlotTopK<size_t> per_object;
  per_object.Reset(object_ids.size(), static_cast<size_t>(k));
  for (size_t idx = 0; idx < candidates.actions.size(); ++idx) {
    const size_t object = static_cast<size_t>(candidates.actions[idx].object);
    per_object.Push(static_cast<size_t>(object_slot[object]),
                    candidates.scores[idx], idx);
  }
  std::vector<double> sums(object_ids.size());
  for (size_t slot = 0; slot < sums.size(); ++slot) {
    sums[slot] = per_object.ScoreSum(slot);
  }
  // The best objects, each with its top-k annotators best first; the
  // chosen candidate indices in that order.
  std::vector<Assignment> assignments;
  std::vector<std::pair<double, size_t>> entries;
  for (const auto& scored_slot : BestSlots(sums, num_objects_to_pick)) {
    const size_t slot = scored_slot.second;
    Assignment assignment;
    assignment.object = object_ids[slot];
    per_object.SortedDescendingInto(slot, &entries);
    for (const auto& scored_idx : entries) {
      assignment.annotators.push_back(
          candidates.actions[scored_idx.second].annotator);
      chosen_indices->push_back(scored_idx.second);
    }
    assignments.push_back(std::move(assignment));
  }
  return assignments;
}

std::vector<Assignment> DqnAgent::SelectBatch(
    const StateView& view, int k, int num_objects_to_pick,
    const std::vector<bool>& annotator_affordable) {
  if (HierEngaged()) {
    return SelectGated(view, k, num_objects_to_pick, annotator_affordable);
  }
  // Untiled: one exact pass over the whole valid grid. Score's candidates
  // and scores, minus its dense feature matrix — only the committed pairs'
  // rows are ever assembled.
  ScoredCandidates candidates =
      ScoreValidPairs(view, annotator_affordable, /*with_features=*/false);
  std::vector<size_t> chosen_indices;
  std::vector<Assignment> assignments;
  {
    CROWDRL_TRACE_SPAN("agent.topk");
    assignments = PickTopKSumAssignments(candidates, k, num_objects_to_pick,
                                         episode_objects_, &chosen_indices);
  }
  Commit(candidates, chosen_indices);
  return assignments;
}

void DqnAgent::CommitActions(const std::vector<Action>& chosen) {
  for (const Action& action : chosen) {
    std::vector<double> row(StateFeaturizer::kFeatureDim);
    AssembleRow(action, row.data());
    pending_.push_back(std::move(row));
    selection_counts_.Increment(action.object, action.annotator);
    ++total_selections_;
  }
}

std::vector<double> DqnAgent::ExactQ(const std::vector<Action>& pairs) const {
  CROWDRL_TRACE_SPAN("agent.q_forward");
  return q_network_.PredictBatchFactorized(CacheBlocks(), pairs,
                                           /*use_target=*/false);
}

std::vector<Assignment> DqnAgent::SelectGated(
    const StateView& view, int k, int num_objects_to_pick,
    const std::vector<bool>& annotator_affordable) {
  CROWDRL_CHECK(HierEngaged());
  CROWDRL_CHECK(k > 0 && num_objects_to_pick > 0);
  CheckViewMatchesEpisode(view);
  CROWDRL_CHECK(view.labelled != nullptr);
  CROWDRL_CHECK(annotator_affordable.size() == episode_annotators_);
  {
    CROWDRL_TRACE_SPAN("scorecache.sync");
    score_cache_.Sync(view);
    RecordSyncMetrics(score_cache_, &sync_metrics_seen_);
  }
  pruner_.BeginIteration();
  const size_t train_steps = q_network_.train_steps();
  const double neg_inf = -std::numeric_limits<double>::infinity();
  ThreadPool* const pool = q_network_.inference_pool();
  size_t num_affordable = 0;
  for (bool a : annotator_affordable) num_affordable += a ? 1 : 0;

  // Exploration bonus: per pair exact, in closed form from current counts
  // (the same expression as Score's, so exact scores reproduce full
  // scoring bit for bit); tile bounds charge the grid-wide maximum,
  // reached at selection count zero.
  const bool ucb = options_.exploration == ExplorationMode::kUcb;
  const double log_term =
      ucb ? 2.0 * std::log(static_cast<double>(total_selections_) + 1.0)
          : 0.0;
  const double bonus_max = ucb ? options_.ucb_c * std::sqrt(log_term) : 0.0;

  // The coarse-to-fine descent below picks the first buckets; the rest
  // stay bounded per bucket.
  const size_t num_buckets = hierarchy_.num_buckets();
  std::vector<uint8_t> expanded(num_buckets, 0);
  std::vector<double> bucket_bound(num_buckets, neg_inf);
  const auto bound_buckets = [&]() {
    for (size_t b = 0; b < num_buckets; ++b) {
      bucket_bound[b] = hierarchy_.BucketLive(b)
                            ? hierarchy_.BucketBound(b, score_cache_, pruner_,
                                                     train_steps, bonus_max)
                            : neg_inf;
    }
  };
  score_cache_.RefreshBucketBoxes();
  hierarchy_.BeginIteration(score_cache_, *view.labelled,
                            annotator_affordable);
  ++hier_stats_.iterations;
  {
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
    const size_t objects_needed =
        std::min(static_cast<size_t>(num_objects_to_pick), live_unlabelled);
    size_t covered_objects = 0;
    size_t covered_pairs = 0;  // Upper estimate: answers are not counted.
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

  // Every pair of an expanded bucket is scored exactly once, streamed: no
  // candidate list is kept, only one top-k slot per object. An object's
  // pairs all live in one bucket and are pushed in ascending annotator
  // order, so each slot sees full scoring's push sequence for its object
  // and its heap, sum and tie-breaks equal full scoring's bit for bit.
  object_topk_.Reset(episode_objects_, static_cast<size_t>(k));
  size_t selection_scored = 0;
  // A pair whose exact score beat the tile bound it was admitted under.
  struct Violation {
    Action pair;
    double q;
  };
  // Scores every valid pair of `buckets` (ascending) into the per-object
  // slots and returns the count of violations, replayed through
  // ObserveTileViolation when `precheck` is set. Chunks of whole objects
  // run one per lane of the Q pool; each fills its pairs and bonuses into
  // lane-local buffers and runs the factorized forward, whose own pool
  // dispatch then runs inline on that lane. Chunk bounds depend on the
  // grid alone, chunks write only their own objects' slots, and the
  // violations replay serially in pair order, so nothing depends on the
  // lane count.
  const size_t chunk_objects = std::max<size_t>(
      1, kGateChunkPairs / std::max<size_t>(1, num_affordable));
  const auto score_buckets = [&](const std::vector<size_t>& buckets,
                                 bool precheck) -> size_t {
    CROWDRL_TRACE_SPAN("agent.score_buckets");
    std::vector<std::pair<size_t, size_t>> chunks;  // Object ranges.
    for (size_t b : buckets) {
      const auto [begin, end] = hierarchy_.BucketRange(b);
      for (size_t at = begin; at < end; at += chunk_objects) {
        chunks.emplace_back(at, std::min(end, at + chunk_objects));
      }
    }
    std::vector<size_t> scored(chunks.size(), 0);
    std::vector<std::vector<Violation>> violations(chunks.size());
    // One ForEachChunk chunk per object range: bounds 0, 1, ..., size.
    std::vector<size_t> chunk_ids(chunks.size() + 1);
    std::iota(chunk_ids.begin(), chunk_ids.end(), size_t{0});
    ForEachChunk(pool, chunk_ids, [&](size_t c, size_t, size_t) {
      thread_local std::vector<Action> pairs;
      thread_local std::vector<double> bonus;
      thread_local std::vector<double> group_bound;
      pairs.clear();
      bonus.clear();
      const auto [begin, end] = chunks[c];
      for (size_t i = begin; i < end; ++i) {
        if ((*view.labelled)[i]) continue;
        const int object = static_cast<int>(i);
        for (size_t j = 0; j < episode_annotators_; ++j) {
          const int annotator = static_cast<int>(j);
          if (!annotator_affordable[j] ||
              view.answers->HasAnswer(object, annotator)) {
            continue;
          }
          pairs.push_back({object, annotator});
          bonus.push_back(
              ucb ? options_.ucb_c *
                        std::sqrt(log_term /
                                  (static_cast<double>(selection_counts_.Get(
                                       object, annotator)) +
                                   1.0))
                  : 0.0);
        }
      }
      if (pairs.empty()) return;
      const std::vector<double> q = ExactQ(pairs);
      scored[c] = pairs.size();
      // TileBound adds the bonus last, so the tile's bound at bonus 0 plus
      // a pair's bonus is that pair's bound, bit for bit.
      const size_t bucket = hierarchy_.BucketOf(pairs.front().object);
      if (precheck) {
        group_bound.resize(hierarchy_.num_groups());
        for (size_t g = 0; g < group_bound.size(); ++g) {
          group_bound[g] = hierarchy_.TileBound(bucket, g, score_cache_,
                                                pruner_, train_steps, 0.0);
        }
      }
      for (size_t p = 0; p < pairs.size(); ++p) {
        const Action& a = pairs[p];
        const double score = q[p] + bonus[p];
        object_topk_.Push(static_cast<size_t>(a.object), score, a.annotator);
        if (precheck &&
            score > group_bound[hierarchy_.GroupOf(a.annotator)] + bonus[p]) {
          violations[c].push_back({a, q[p]});
        }
      }
    });
    // Serial, in pair order: each violation may move alpha/beta.
    size_t count = 0;
    for (size_t c = 0; c < chunks.size(); ++c) {
      selection_scored += scored[c];
      hier_stats_.scored_pairs += scored[c];
      for (const Violation& v : violations[c]) {
        hierarchy_.ObserveTileViolation(
            hierarchy_.BucketOf(v.pair.object),
            hierarchy_.GroupOf(v.pair.annotator), v.q, score_cache_,
            train_steps, &pruner_);
        ++count;
      }
    }
    return count;
  };
  // The scored objects, ascending (full scoring's slot order), and their
  // top-k sums, in SlotTopK::ScoreSum's order as full scoring sums them.
  std::vector<int> objects;
  std::vector<double> sums;
  const auto rank_objects = [&]() {
    objects.clear();
    sums.clear();
    for (size_t b = 0; b < num_buckets; ++b) {
      if (!expanded[b]) continue;
      const auto [begin, end] = hierarchy_.BucketRange(b);
      for (size_t i = begin; i < end; ++i) {
        if (object_topk_.size(i) == 0) continue;
        objects.push_back(static_cast<int>(i));
        sums.push_back(object_topk_.ScoreSum(i));
      }
    }
  };

  std::vector<size_t> to_score;
  for (size_t b = 0; b < num_buckets; ++b) {
    if (expanded[b]) to_score.push_back(b);
  }
  GatedSelection selection;
  bool served = false;
  bool gate_failed = false;
  int rounds = 0;
  for (;;) {
    // Score the newly expanded buckets. A score above its tile bound
    // adapts alpha/beta, and the buckets are bounded again.
    ++hier_stats_.rounds;
    if (score_buckets(to_score, /*precheck=*/true) > 0) {
      pruner_.NotePrecheckFallback();
      ++hier_stats_.rounds;
      bound_buckets();
      if (rounds++ >= kMaxRounds) break;
    }

    bool unexpanded_live = false;
    for (size_t b = 0; b < num_buckets; ++b) {
      if (hierarchy_.BucketLive(b) && !expanded[b]) unexpanded_live = true;
    }
    // Nothing left to bound: full scoring's answer is already at hand.
    if (!unexpanded_live) break;

    {
      CROWDRL_TRACE_SPAN("agent.topk");
      rank_objects();
      selection = PickObjects(object_topk_, objects, sums,
                              num_objects_to_pick, /*prove=*/true);
    }
    // Unexpanded-bucket gate: every live unexpanded bucket's best top-k
    // sum — k times its bound when positive, the bound itself otherwise
    // (j <= k negative terms sum to at most one of them) — must sit
    // clearly below the selection cutoff. A selection short of objects has
    // no cutoff: any bucket with a valid pair could still contribute one.
    std::vector<size_t> offenders;
    if (selection.sound) {
      const double cutoff = selection.assignments.size() <
                                    static_cast<size_t>(num_objects_to_pick)
                                ? neg_inf
                                : selection.min_chosen_sum;
      for (size_t b = 0; b < num_buckets; ++b) {
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
    // A failed gate grows the descent's boost once per selection and
    // expands the offending buckets. A near-tie among the scored objects
    // names no offender, and only full scoring settles it.
    if (!gate_failed) pruner_.NoteGateFallback();
    gate_failed = true;
    if (offenders.empty() || rounds >= kMaxRounds) break;
    ++rounds;
    for (size_t b : offenders) expanded[b] = 1;
    to_score = std::move(offenders);
  }

  if (served) {
    pruner_.NotePrunedSuccess(selection_scored, gate_failed);
    ++hier_stats_.gated_iterations;
  } else {
    // Full scoring: expand every live bucket and score those not yet
    // scored. Every valid pair is then in its object's slot, so the pick
    // is PickTopKSumAssignments' over Score()'s candidates, tie-breaks
    // included.
    to_score.clear();
    for (size_t b = 0; b < num_buckets; ++b) {
      if (hierarchy_.BucketLive(b) && !expanded[b]) {
        expanded[b] = 1;
        to_score.push_back(b);
      }
    }
    score_buckets(to_score, /*precheck=*/false);
    {
      CROWDRL_TRACE_SPAN("agent.topk");
      rank_objects();
      selection = PickObjects(object_topk_, objects, sums,
                              num_objects_to_pick, /*prove=*/false);
    }
    pruner_.NoteFullPass();
    ++hier_stats_.full_fallbacks;
  }

  CommitActions(selection.chosen_actions);
  hier_stats_.enumerated_pairs += selection_scored;
  for (uint8_t e : expanded) hier_stats_.expanded_buckets += e;
  RecordPruneMetrics(pruner_, &prune_metrics_seen_);
  return std::move(selection.assignments);
}

std::vector<Action> DqnAgent::EnumerateBootstrapSublinear(
    const StateView& view, const std::vector<bool>& annotator_affordable,
    size_t max_pairs) {
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
  size_t objects = 0;
  size_t annotators = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&objects));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&annotators));
  // Nothing is sized from the episode shape until it is known to be
  // sound: non-empty, and the current episode's when one has begun.
  if (objects == 0 || annotators == 0) {
    return Status::DataLoss(StringPrintf(
        "checkpointed episode shape %zu x %zu is empty", objects,
        annotators));
  }
  if (episode_objects_ != 0 && (objects != episode_objects_ ||
                                annotators != episode_annotators_)) {
    return Status::DataLoss(StringPrintf(
        "checkpointed episode shape %zu x %zu does not match this "
        "episode's %zu x %zu",
        objects, annotators, episode_objects_, episode_annotators_));
  }
  episode_objects_ = objects;
  episode_annotators_ = annotators;
  CROWDRL_RETURN_IF_ERROR(selection_counts_.LoadState(
      reader, episode_objects_, episode_annotators_));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&total_selections_));
  size_t num_pending = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&num_pending));
  CROWDRL_RETURN_IF_ERROR(
      reader->CheckCount(num_pending, 8, "pending feature row"));
  std::vector<std::vector<double>> pending(num_pending);
  for (std::vector<double>& features : pending) {
    CROWDRL_RETURN_IF_ERROR(reader->ReadDoubleVector(&features));
  }
  pending_ = std::move(pending);
  // The score cache is not serialized: its blocks are pure functions of
  // the StateView, so dropping it here and letting the next Sync rebuild
  // reproduces the same bits on the restored run. The tile records
  // likewise restart empty (gated selections equal full scoring, so that
  // keeps restores bit-identical), and the metrics snapshot resets with
  // the cache's cumulative stats.
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
    // At hierarchical scale the enumerate-then-subsample bootstrap would
    // walk the full pair grid; the sublinear variant counts valid pairs
    // per object and rank-samples without materializing them. Below the
    // cap it produces the identical candidate list with no RNG drawn.
    // Neither assembles feature rows: the head reads the synced blocks.
    std::vector<Action> candidates =
        HierEngaged()
            ? EnumerateBootstrapSublinear(next_view, annotator_affordable,
                                          options_.max_bootstrap_candidates)
            : EnumerateCandidates(next_view, annotator_affordable,
                                  options_.max_bootstrap_candidates,
                                  /*features=*/nullptr);
    if (!candidates.empty()) {
      CROWDRL_TRACE_SPAN("agent.bootstrap_q");
      const FeatureBlocks blocks = CacheBlocks();
      std::vector<double> target_q = q_network_.PredictBatchFactorized(
          blocks, candidates, /*use_target=*/true);
      if (options_.q.double_dqn) {
        // Double DQN: pick the action with the online network, evaluate
        // it with the target network.
        std::vector<double> online_q = q_network_.PredictBatchFactorized(
            blocks, candidates, /*use_target=*/false);
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

}  // namespace crowdrl::rl
