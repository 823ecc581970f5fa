#ifndef CROWDRL_RL_SHORTLIST_H_
#define CROWDRL_RL_SHORTLIST_H_

#include <cstddef>

namespace crowdrl::rl {

/// \brief Drift sensitivities, the descent's adaptive boost and outcome
/// stats of the gated selection engine.
///
/// Used only by the gated engine, which runs only on tiled grids (see
/// DqnAgentOptions::hier_min_pairs); untiled selections score the whole
/// grid and never touch it. The selection structure (per-object top-k by
/// score, then objects by top-k sums) only ever needs exact scores near
/// the top of the score distribution, so the engine exact-scores the
/// buckets whose upper bounds rank highest and proves the unexpanded rest
/// cannot matter. The bounds come from the tiling alone
/// (BucketHierarchy::TileBound): one exactly-scored representative per
/// tile plus drift slack,
///
///   UB = rep_q + alpha * (rep drift + bucket width + group width)
///        + beta * train_steps_since_rep + margin + bonus
///
/// where `bonus` is the exploration bonus computed exactly from current
/// selection counts (closed form, never stale), and alpha / beta are the
/// observed drift sensitivities kept here: running maxima of |dQ| per unit
/// feature drift and |dQ| per train step, measured from representative
/// refreshes and from exact scores that beat their tile bound, doubled for
/// headroom and decayed slowly. The bounds are heuristic — exactness is
/// NOT assumed from them; the caller's selection gate verifies after the
/// fact that no unexpanded bucket could have altered the selection, and
/// expands buckets or scores the whole grid otherwise (see DESIGN.md
/// "Gated selection").
///
/// Nothing here grows with the pair grid, and nothing is checkpointed:
/// gated selections equal full scoring, so a restored run reproduces the
/// uninterrupted run's assignments bit for bit whatever alpha and beta
/// restart from.
///
/// Owned and driven by one DqnAgent; the const accessors may be read
/// concurrently (the gate's chunked scoring pass).
class ShortlistPruner {
 public:
  struct Stats {
    size_t pruned_iterations = 0;  ///< Gated selections served.
    size_t full_iterations = 0;    ///< Full-scoring fallbacks.
    size_t gate_fallbacks = 0;     ///< Selections whose gate failed.
    size_t precheck_fallbacks = 0; ///< A scored pair exceeded its bound.
    size_t gate_recoveries = 0;    ///< Gated selections served after the
                                   ///< gate failed once in the iteration.
    size_t exact_rows = 0;         ///< Rows forwarded by served selections.
  };

  /// Call once per selection iteration before reading bounds: applies the
  /// slow sensitivity decay.
  void BeginIteration();

  /// Feeds one observed exact-rescore move into the sensitivity
  /// adaptation. Callers keep the stale anchors — the hierarchical tile
  /// representatives — and report |dq| = |Q_new - Q_stale| against the
  /// feature drift and train-step delta the anchor aged through. A move
  /// measures a sensitivity only when it can be attributed to it: the
  /// anchor aged through that signal alone, or the move raised the
  /// sensitivity to cover it alone.
  void ObserveMove(double dq, double drift, double ticks);

  /// Outcome notes, driving the adaptive boost and stats: a gate fallback
  /// doubles the boost, and a streak of gated successes halves it.
  /// `recovered` marks a selection served after a failed gate run.
  void NotePrunedSuccess(size_t exact_rows, bool recovered = false);
  void NoteFullPass();
  void NoteGateFallback();
  void NotePrecheckFallback();

  double alpha() const { return sensitivity_.alpha; }
  double beta() const { return sensitivity_.beta; }
  /// Additive slack on every upper bound.
  double margin() const { return kBoundMargin; }
  /// Multiplier on the tiled descent's pair target
  /// (DqnAgentOptions::prune_shortlist).
  size_t boost() const { return boost_; }
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
  };

  /// The sensitivities after observing one move (ObserveMove's rule).
  static Sensitivity ApplyMove(Sensitivity s, double dq, double drift,
                               double ticks);

  Sensitivity sensitivity_;
  // Descent-target multiplier: doubled on gate fallback, halved after a
  // streak of gated successes.
  size_t boost_ = 1;
  size_t success_streak_ = 0;

  Stats stats_;
};

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_SHORTLIST_H_
