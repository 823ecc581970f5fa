#ifndef CROWDRL_RL_DQN_AGENT_H_
#define CROWDRL_RL_DQN_AGENT_H_

#include <memory>
#include <utility>
#include <vector>

#include "rl/action.h"
#include "rl/hierarchy.h"
#include "rl/pair_shards.h"
#include "rl/q_network.h"
#include "rl/replay_buffer.h"
#include "rl/score_cache.h"
#include "rl/shortlist.h"
#include "rl/state.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/topk.h"

namespace crowdrl::rl {

/// How the agent trades exploration against greed when picking actions.
enum class ExplorationMode {
  /// The paper's dynamic selection (Eq. 6): Q(S, A) plus a UCB1-style
  /// bonus sqrt(2 ln n' / n) over per-pair selection counts.
  kUcb,
  /// Classic epsilon-greedy with multiplicative decay (kept for the
  /// exploration ablation bench).
  kEpsilonGreedy,
  /// Pure arg-max (no exploration; ablation only).
  kGreedy,
};

/// Agent hyper-parameters.
struct DqnAgentOptions {
  QNetworkOptions q;
  size_t replay_capacity = 4096;
  size_t train_batch = 32;
  /// Gradient steps run after each Observe().
  int train_steps_per_observe = 8;
  /// Replay warm-up before training starts.
  size_t min_replay_before_training = 32;
  ExplorationMode exploration = ExplorationMode::kUcb;
  double ucb_c = 0.5;
  double epsilon = 0.2;
  double epsilon_min = 0.02;
  double epsilon_decay = 0.98;
  /// Cap on candidate pairs scanned when bootstrapping
  /// max_a Q_target(S', a) (sampled uniformly beyond the cap).
  size_t max_bootstrap_candidates = 2048;
  /// State-feature ablation mask (bench/ablation_state): when non-empty,
  /// must have StateFeaturizer::kFeatureDim entries and masked-off
  /// features are zeroed before reaching the Q-network. Empty = all on.
  std::vector<bool> feature_mask;
  /// Worker threads for dense candidate featurization: the public feature
  /// matrix of Score() is built in parallel chunks, and nothing else is.
  /// Selection and the bootstrap never featurize candidates — they score
  /// through the factorized Q head and assemble only the committed rows,
  /// and the tiled gate runs its scoring pass, all on `q.threads` — so
  /// an agent driven by SelectBatch never dispatches here. 1 (the default)
  /// runs the serial path; every feature row depends only on its own
  /// (object, annotator), so results are bit-identical at any thread
  /// count.
  int threads = 1;
  /// Externally owned featurization pool; takes precedence over `threads`
  /// when set and does the same (and only the same) work. The labelling
  /// service hands every campaign's agent the same shared pool — exactly
  /// one scheduler pump thread drives the agents, so they never contend
  /// for it (a concurrent caller would run its range inline, see
  /// util/thread_pool.h), and bit-identical to a private pool because
  /// featurization is bit-identical at any thread count.
  std::shared_ptr<ThreadPool> shared_pool;
  /// Exact-scoring target of the gated selection engine, which runs only
  /// on tiled grids (see hier_min_pairs): its coarse-to-fine descent
  /// expands the highest-bound buckets until they cover the requested
  /// objects and this many valid pairs, times an adaptive boost that
  /// doubles after gate fallbacks. SelectBatch scores every pair of the
  /// expanded buckets and serves the selection only when a strict gate
  /// proves that no unexpanded bucket could alter it; a failed gate
  /// expands the buckets that could, and ends in full scoring, so
  /// selections are always identical to Score + PickTopKSumAssignments.
  /// 0 = auto (max(4096, 8 x k x picks)); tests set it to scale the
  /// engine down. Untiled grids, epsilon-greedy exploration and
  /// feature-masked agents never consult it: they score every valid pair.
  /// Public Score() always scores every pair regardless.
  size_t prune_shortlist = 0;
  /// Grid size (|O| x |W| pairs) from which SelectBatch tiles the grid
  /// into buckets x groups (BucketHierarchy) and runs the gated engine: a
  /// coarse-to-fine descent over tile-derived upper bounds picks the first
  /// buckets, and the gate bounds every unexpanded bucket. Below it every
  /// selection is one exact full pass over the valid grid, which measured
  /// faster than the gate there (DESIGN.md §11). Both score on the
  /// factorized Q head. SIZE_MAX never tiles. The default keeps every
  /// small-grid workload untiled.
  size_t hier_min_pairs = size_t{1} << 22;
  /// Objects per bucket / annotators per group of the tiling.
  size_t hier_object_bucket = 1024;
  size_t hier_annotator_group = 128;
  uint64_t seed = 23;
};

/// All valid candidate actions of a state, with features and scores.
/// Produced by DqnAgent::Score; consumed by a selection policy and then
/// DqnAgent::Commit.
struct ScoredCandidates {
  std::vector<Action> actions;
  /// One dense (masked) Q input row per action. Commit does not read it.
  Matrix features;
  /// Q(S, A) plus the exploration bonus when the mode adds one.
  std::vector<double> scores;
};

/// \brief The Agent of CrowdRL (Section IV): scores every valid
/// (object, annotator) pair with the DQN, masks already-labelled objects
/// and already-answered pairs (they are simply never enumerated, which is
/// the Q = -inf masking of Section IV-B), adds the UCB exploration bonus,
/// and selects the objects whose top-k Q-values sum highest (min-heap
/// selection), assigning each to those k annotators.
///
/// The Score / Commit split exists so the ablation variants (random task
/// selection M1, random task assignment M2) can reuse the exact scoring
/// path while replacing one half of the joint policy. Transitions are
/// completed lazily: Commit caches the executed pairs' features, and the
/// following Observe() attaches the reward and the next-state bootstrap
/// before pushing them into experience replay.
class DqnAgent {
 public:
  explicit DqnAgent(DqnAgentOptions options);

  /// Resets per-episode exploration state (UCB counts, pending
  /// transitions) for a workload of the given shape.
  void BeginEpisode(size_t num_objects, size_t num_annotators);

  /// Enumerates and scores every valid pair: object unlabelled, pair
  /// unanswered, annotator affordable.
  ScoredCandidates Score(const StateView& view,
                         const std::vector<bool>& annotator_affordable);

  /// Registers the candidate indices that were actually executed: caches
  /// their features as pending transitions and bumps UCB counts. The rows
  /// are reassembled from the cache this agent's Score synced, equal to
  /// `candidates.features` bit for bit, so Commit must follow the Score
  /// that produced `candidates` with no scoring or observing call between.
  void Commit(const ScoredCandidates& candidates,
              const std::vector<size_t>& chosen_indices);

  /// The paper's joint policy: picks up to `num_objects_to_pick` objects,
  /// each assigned up to `k` annotators, and Commits the choice. Returns
  /// fewer (possibly zero) assignments when valid pairs run out.
  std::vector<Assignment> SelectBatch(
      const StateView& view, int k, int num_objects_to_pick,
      const std::vector<bool>& annotator_affordable);

  /// Completes the transitions cached by the latest Commit with the
  /// observed iteration reward r(t) and the next state's bootstrap value,
  /// then runs training steps on replay. The same reward is attached to
  /// every pending pair.
  void Observe(double reward, const StateView& next_view,
               const std::vector<bool>& annotator_affordable, bool terminal);

  /// Like Observe but with one reward per pending pair (in Commit order) —
  /// the decomposed credit assignment of core::PairReward. `rewards` must
  /// have exactly pending_transitions() entries.
  void ObservePerPair(const std::vector<double>& rewards,
                      const StateView& next_view,
                      const std::vector<bool>& annotator_affordable,
                      bool terminal);

  /// Like ObservePerPair but completes only the `count` oldest pending
  /// transitions (the head of the Commit-order FIFO), leaving newer ones
  /// pending. The labelling service's asynchronous-inference mode selects
  /// ahead while truth inference runs on a snapshot, so at observation
  /// time the pending list can hold several batches; each is observed
  /// against the view current when its reward became known.
  void ObserveOldestPairs(size_t count, const std::vector<double>& rewards,
                          const StateView& next_view,
                          const std::vector<bool>& annotator_affordable,
                          bool terminal);

  QNetwork& q_network() { return q_network_; }
  const QNetwork& q_network() const { return q_network_; }
  const ReplayBuffer& replay() const { return replay_; }
  size_t pending_transitions() const { return pending_.size(); }
  double current_epsilon() const { return epsilon_; }
  Rng* rng() { return &rng_; }
  /// The incremental-scoring block cache (stats inspection).
  const ScoreCache& score_cache() const { return score_cache_; }
  /// Gated-selection state (stats inspection; meaningful when SelectBatch
  /// drives the agent on a tiled grid — untiled selections never touch
  /// it).
  const ShortlistPruner& shortlist_pruner() const { return pruner_; }

  /// Tiled-selection counters (bench/scale_stress reports the
  /// scored-candidate sub-linearity and expanded-bucket fraction from
  /// these). Every tiled SelectBatch counts in `iterations` and in exactly
  /// one of `gated_iterations` / `full_fallbacks`. Not checkpointed.
  struct HierStats {
    size_t iterations = 0;        ///< Tiled selections attempted.
    size_t gated_iterations = 0;  ///< Served by the gate.
    size_t full_fallbacks = 0;    ///< Served by full scoring.
    size_t rounds = 0;            ///< Scoring passes and re-bounds.
    size_t scored_pairs = 0;      ///< Exact Q rows spent on selection.
    size_t enumerated_pairs = 0;  ///< Valid pairs of expanded buckets.
    size_t rep_refreshes = 0;     ///< Tile representative rescorings.
    size_t expanded_buckets = 0;  ///< Final expansion set sizes, summed.
    size_t live_buckets = 0;      ///< Live buckets seen, summed.
  };
  const HierStats& hier_stats() const { return hier_stats_; }
  /// True when SelectBatch tiles the grid and runs the gated engine for
  /// the current episode shape; never for epsilon-greedy or feature-masked
  /// agents, which always take the full pass.
  bool HierEngaged() const;
  /// Total candidate feature rows assembled into Score()'s public matrix
  /// so far (diagnostic counter; not checkpointed). SelectBatch and the
  /// Observe bootstrap never advance it.
  uint64_t rows_featurized() const { return rows_featurized_; }

  /// Checkpointable surface: Q-networks, replay contents, the agent's RNG
  /// stream, exploration state (epsilon, UCB counts), episode shape, and
  /// pending transitions — everything needed to resume mid-episode
  /// bit-identically. Restore into an agent built with the same options.
  /// LoadState rejects an empty episode shape, and one other than the
  /// episode this agent has begun, with DataLoss before sizing anything.
  void SaveState(io::Writer* writer) const;
  Status LoadState(io::Reader* reader);

 private:
  /// Enumerates valid pairs and syncs the cache; fills `features` (one
  /// candidate per row) only when it is non-null, which only Score() asks
  /// for.
  std::vector<Action> EnumerateCandidates(
      const StateView& view, const std::vector<bool>& annotator_affordable,
      size_t max_pairs, Matrix* features);

  /// The one full-grid scorer behind Score and untiled SelectBatch:
  /// enumerates every valid pair (syncing the cache), scores it — Q plus
  /// the exploration bonus, or uniform draws on an epsilon-greedy
  /// exploration step — and fills the candidates' dense (masked) feature
  /// rows only when `with_features` is set.
  ScoredCandidates ScoreValidPairs(
      const StateView& view, const std::vector<bool>& annotator_affordable,
      bool with_features);

  /// The gated selection engine behind SelectBatch on tiled grids (CHECKs
  /// HierEngaged): exact-scores the pairs of the buckets its descent
  /// expands, proves the selection with the gate, expands the buckets
  /// that could still alter it on failure, and ends in full scoring.
  /// Selections are identical to full scoring.
  std::vector<Assignment> SelectGated(
      const StateView& view, int k, int num_objects_to_pick,
      const std::vector<bool>& annotator_affordable);

  /// The one commit path (Commit and both SelectBatch paths): caches each
  /// chosen pair's feature row, assembled from the ScoreCache as the
  /// selection's enumeration synced it, as a pending transition and bumps
  /// its UCB count.
  void CommitActions(const std::vector<Action>& chosen);

  /// One candidate's dense feature row from the synced cache, with the
  /// ablation feature mask applied.
  void AssembleRow(const Action& pair, double* row) const;

  /// Bootstrap candidate enumeration that never materializes the full
  /// valid-pair list: counts valid pairs in O(|O| + answers + |W|) and
  /// maps sampled ranks back to pairs when the count exceeds `max_pairs`.
  /// Below the cap it reproduces EnumerateCandidates' list (same order,
  /// no RNG) exactly; above it the rank sampler consumes the stream
  /// differently, which only the hierarchical scale path ever does.
  std::vector<Action> EnumerateBootstrapSublinear(
      const StateView& view, const std::vector<bool>& annotator_affordable,
      size_t max_pairs);

  /// Exact Q of candidate pairs from the synced cache: the online
  /// network's factorized head, with the agent's feature mask.
  std::vector<double> ExactQ(const std::vector<Action>& pairs) const;

  /// Aborts unless the view's answer log matches the BeginEpisode shape:
  /// selection_counts_ is indexed by (object, annotator) pairs of that
  /// shape, so a wider view would silently read out of bounds.
  void CheckViewMatchesEpisode(const StateView& view) const;

  /// The synced cache's blocks and the agent's feature mask, for the head.
  FeatureBlocks CacheBlocks() const;

  /// Drops the never-checkpointed selection state (score cache, tiling)
  /// for the current episode shape; BeginEpisode and LoadState share it.
  void ResetSelectionState();

  DqnAgentOptions options_;
  QNetwork q_network_;
  ReplayBuffer replay_;
  /// Block cache for incremental featurization; rebuilt (never
  /// checkpointed) after BeginEpisode/LoadState — blocks are pure
  /// functions of the StateView, so the rebuild is bit-identical.
  ScoreCache score_cache_;
  /// Shortlist sizing and drift sensitivities for gated (tiled)
  /// selection; never checkpointed, and gated selections equal full
  /// scoring, so restores stay bit-identical. Untiled grids never touch
  /// it.
  ShortlistPruner pruner_;
  /// Bucket x group tiling for tiled selection, whose tile records are the
  /// gate's only bounds; reset (never checkpointed) by
  /// BeginEpisode/LoadState for the same reason.
  BucketHierarchy hierarchy_;
  HierStats hier_stats_;
  /// Snapshot of the cache's cumulative stats at the last metrics export,
  /// so sync metrics are derived from the cache's own deltas.
  ScoreCache::CumulativeStats sync_metrics_seen_;
  /// Same pattern for the pruner's stats.
  ShortlistPruner::Stats prune_metrics_seen_;
  Rng rng_;
  double epsilon_;
  /// Featurization pool, null when options_.threads <= 1 (serial).
  std::shared_ptr<ThreadPool> pool_;

  size_t episode_objects_ = 0;
  size_t episode_annotators_ = 0;
  /// Per-pair UCB visitation counts, sharded by object range so a
  /// million-object episode only pays for the ranges selection touches.
  PairCounts selection_counts_;
  size_t total_selections_ = 0;
  /// The gated engine's per-object top-k slots, one per object of the
  /// episode (one flat buffer, the annotator as payload), reused across
  /// selections so that steady-state selections write into resident
  /// pages. Nothing the engine keeps is sized by the pairs it scores.
  SlotTopK<int> object_topk_;
  std::vector<std::vector<double>> pending_;  // Executed pairs' features.
  uint64_t rows_featurized_ = 0;  // Diagnostic; bumped serially post-dispatch.
};

/// Greedy joint policy over scored candidates: per-object top-k by score,
/// then the `num_objects_to_pick` objects with the largest top-k sums.
/// Returns the chosen candidate indices grouped into assignments.
std::vector<Assignment> PickTopKSumAssignments(
    const ScoredCandidates& candidates, int k, int num_objects_to_pick,
    size_t num_objects_total, std::vector<size_t>* chosen_indices);

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_DQN_AGENT_H_
