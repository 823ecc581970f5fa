#ifndef CROWDRL_RL_SHORTLIST_H_
#define CROWDRL_RL_SHORTLIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rl/action.h"
#include "rl/pair_shards.h"
#include "rl/score_cache.h"
#include "util/thread_pool.h"

namespace crowdrl::rl {

/// Knobs of the gated engine's shortlist stage
/// (DqnAgentOptions::prune_shortlist).
struct ShortlistOptions {
  /// Shortlist size sent to the exact Q forward. 0 = auto:
  /// clamp(num_pairs / 16, 256, num_pairs), scaled up after gate
  /// fallbacks. Pairs with no usable stale entry are must-score and are
  /// added on top of this size.
  size_t shortlist = 0;
};

/// \brief Per-pair stale-Q table and score upper bounds for shortlist
/// pruning of the |O| x |W| candidate grid.
///
/// Used only by the gated engine, which runs only on tiled grids (see
/// DqnAgentOptions::hier_min_pairs); untiled selections score the whole
/// grid and never touch it, so its table stays unallocated there. The
/// selection structure (per-object top-k by score, then objects by top-k
/// sums) only ever needs exact scores near the top of the score
/// distribution. This table keeps, for every (object, annotator) pair,
/// the last exactly-computed raw Q value together with snapshots of the
/// ScoreCache drift accumulators and the train-step counter taken at that
/// moment. An upper bound on the pair's current score is then
///
///   UB = stale_q + alpha * (outstanding object + annotator + global
///        feature drift) + beta * train_steps_since + margin + bonus
///
/// where `bonus` is the exploration bonus computed exactly from current
/// selection counts (closed form, never stale), and alpha / beta are
/// observed drift sensitivities: running maxima of |dQ| per unit feature
/// drift and |dQ| per train step, measured every time a pair is rescored,
/// doubled for headroom and decayed slowly. The bounds are heuristic —
/// exactness is NOT assumed from them; the caller's selection gate
/// verifies after the fact that no non-shortlisted pair could have
/// altered the selection, and climbs its fallback ladder otherwise (see
/// DESIGN.md "Gated selection").
///
/// Storage is sharded by object range (rl::PairShardMap): a range's
/// entries materialize the first time one of its pairs is rescored, so a
/// million-object episode whose hierarchical selection only ever expands
/// a few ranges keeps the table proportional to those ranges instead of
/// the full grid.
///
/// The table is invalidated wholesale whenever the ScoreCache full-
/// rebuilds (its drift accumulators reset, so the snapshots no longer
/// measure anything) and is deliberately NOT checkpointed: after a
/// restore every pair is must-score until it is rescored (its tile bound
/// stands in meanwhile), and because gated selections equal full
/// scoring, the resumed run reproduces the uninterrupted run's
/// assignments bit for bit.
///
/// Owned and driven by one DqnAgent. The const bound queries may run
/// concurrently; RecordExact spreads its own work over a pool it is handed.
class ShortlistPruner {
 public:
  struct Stats {
    size_t pruned_iterations = 0;  ///< Gated shortlist selections served.
    size_t full_iterations = 0;    ///< Must-score + fallback full scorings.
    size_t gate_fallbacks = 0;     ///< Selection gate rejected the shortlist.
    size_t precheck_fallbacks = 0; ///< A rescored pair exceeded its bound.
    size_t gate_recoveries = 0;    ///< Gated selections served after the
                                   ///< gate failed once in the iteration.
    size_t exact_rows = 0;         ///< Rows sent to the exact Q forward.
    size_t bounded_rows = 0;       ///< Rows served by upper bounds alone.
  };

  ShortlistPruner() = default;
  explicit ShortlistPruner(const ShortlistOptions& options);

  /// Drops every stale entry and resizes the table for a workload shape.
  /// Learned sensitivities (alpha / beta) survive — they are properties
  /// of the model / featurization scale, not of one episode.
  void Reset(size_t num_objects, size_t num_annotators);

  /// Call once per selection iteration before reading bounds: invalidates
  /// the table when the cache full-rebuilt since the last iteration and
  /// applies the slow sensitivity decay.
  void BeginIteration(const ScoreCache& cache);

  /// Evicts every stale entry of one annotator's column. Called when an
  /// annotator disconnects mid-run: its pairs leave the candidate grid
  /// entirely (not merely going +inf), so the auto shortlist size keeps
  /// tracking the live pair count, and a later reconnect starts from
  /// must-score entries instead of bounds snapshotted against a pool that
  /// no longer exists.
  void EvictAnnotator(int annotator);

  /// Shortlist size for a grid of `num_pairs` candidates of which
  /// `must_score` have no usable stale entry.
  size_t ShortlistSize(size_t num_pairs, size_t must_score) const;

  /// Fills `ub[i]` with the score upper bound of `pairs[i]` (+infinity
  /// when the pair has no valid stale entry, or when it aged through
  /// feature drift or training steps before any rescore measured a move of
  /// that kind — an unmeasured sensitivity bounds nothing). `bonus[i]` is
  /// the pair's exact exploration bonus. Returns the number of +infinity
  /// entries.
  size_t UpperBounds(const ScoreCache& cache, size_t train_steps,
                     const std::vector<Action>& pairs,
                     const std::vector<double>& bonus,
                     std::vector<double>* ub) const;

  /// Range form for chunked callers: fills (*ub)[i] for i in [begin, end)
  /// only (`ub` already holds pairs.size() entries) and returns the
  /// range's +infinity count. Disjoint ranges may run concurrently.
  size_t UpperBounds(const ScoreCache& cache, size_t train_steps,
                     const std::vector<Action>& pairs,
                     const std::vector<double>& bonus, size_t begin,
                     size_t end, std::vector<double>* ub) const;

  /// Records exact raw Q values (exploration bonus excluded) for `pairs`,
  /// snapshotting the drift accumulators and train step. When `prior_ub`
  /// is non-null (same indexing as `pairs`, with `bonus`), each rescored
  /// pair is prechecked against the bound it was admitted under and the
  /// sensitivities adapt to any observed under-estimate. Returns the
  /// number of pairs whose exact score exceeded their prior bound — a
  /// non-zero return means the bounds were unsound this iteration and the
  /// caller must re-bound before trusting them. `pairs` must be distinct.
  ///
  /// With a `pool`, the table writes and the move measurements run in
  /// chunks on its lanes. Every shard the pairs touch is created before
  /// that pass. Each chunk keeps only the moves that the call's starting
  /// sensitivities do not already absorb, and those replay serially in
  /// pair order. Alpha and beta only grow and the measured flags only get
  /// set within a call, so a move the starting state absorbs is a no-op
  /// at every later state too (for finite scores): the result equals the
  /// serial pass at every lane count.
  size_t RecordExact(const ScoreCache& cache, size_t train_steps,
                     const std::vector<Action>& pairs,
                     const std::vector<double>& raw_q,
                     const std::vector<double>* prior_ub,
                     const std::vector<double>* bonus,
                     ThreadPool* pool = nullptr);

  /// Feeds one externally observed exact-rescore move into the
  /// sensitivity adaptation (the same max-update rule RecordExact
  /// applies). Callers that maintain their own stale anchors — the
  /// hierarchical tile representatives — report |dq| = |Q_new - Q_stale|
  /// against the feature drift and train-step delta the anchor aged
  /// through, so a drifting network loosens the shared bounds no matter
  /// which layer observed the move first. A move measures a sensitivity
  /// only when it can be attributed to it: the anchor aged through that
  /// signal alone, or the move raised the sensitivity to cover it alone.
  void ObserveMove(double dq, double drift, double ticks);

  /// Outcome notes, driving the adaptive shortlist boost and stats: a
  /// gate fallback doubles the boost, and a streak of gated successes
  /// halves it. `recovered` marks a selection served after a failed gate
  /// run.
  void NotePrunedSuccess(size_t exact_rows, size_t bounded_rows,
                         bool recovered = false);
  void NoteFullPass();
  void NoteGateFallback();
  void NotePrecheckFallback();

  double alpha() const { return sensitivity_.alpha; }
  double beta() const { return sensitivity_.beta; }
  /// Additive slack on every upper bound.
  double margin() const { return kBoundMargin; }
  size_t boost() const { return boost_; }
  size_t allocated_shards() const { return table_.allocated_shards(); }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr double kBoundMargin = 1e-6;

  /// Drift sensitivities (running maxima with 2x headroom, decayed), and
  /// whether each has measured a move yet.
  struct Sensitivity {
    double alpha = 1.0;
    double beta = 0.0;
    bool drift_measured = false;
    bool ticks_measured = false;
    bool operator==(const Sensitivity&) const = default;
  };

  /// The sensitivities after observing one move (ObserveMove's rule).
  static Sensitivity ApplyMove(Sensitivity s, double dq, double drift,
                               double ticks);

  /// One object range's stale entries; allocated on first rescore into
  /// the range (see PairShardMap).
  struct TableShard {
    explicit TableShard(size_t pairs)
        : stale_q(pairs, 0.0),
          snap_obj(pairs, 0.0),
          snap_ann(pairs, 0.0),
          snap_glob(pairs, 0.0),
          stale_step(pairs, 0),
          valid(pairs, 0) {}
    std::vector<double> stale_q;
    std::vector<double> snap_obj;   // object_drift()[i] at record time.
    std::vector<double> snap_ann;   // annotator_drift()[j] at record time.
    std::vector<double> snap_glob;  // global_drift() at record time.
    std::vector<uint32_t> stale_step;
    std::vector<uint8_t> valid;
  };

  ShortlistOptions options_;

  PairShardMap<TableShard> table_;

  Sensitivity sensitivity_;
  // Shortlist-size multiplier: doubled on gate fallback, halved after a
  // streak of gated successes.
  size_t boost_ = 1;
  size_t success_streak_ = 0;

  size_t seen_full_rebuilds_ = 0;  // Last seen ScoreCache::rebuild_epoch().
  bool epoch_seen_ = false;

  Stats stats_;
};

/// The shortlist cut: the `size` candidates that are not yet exact and
/// come first in one total order, upper bound descending and then index
/// ascending (a NaN bound ranks with +infinity), returned in ascending
/// index order. `size` must be below the count of such candidates. Runs
/// in the given chunks of [0, ub.size()) on `pool`; the total order makes
/// the result independent of the chunking.
std::vector<uint32_t> CutShortlist(ThreadPool* pool,
                                   const std::vector<size_t>& chunks,
                                   const std::vector<double>& ub,
                                   const std::vector<uint8_t>& is_exact,
                                   size_t size);

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_SHORTLIST_H_
