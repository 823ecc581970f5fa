#include "rl/shortlist.h"

#include <algorithm>

namespace crowdrl::rl {

namespace {

// Per-iteration decay of the drift sensitivities; slow enough that a
// calibrated sensitivity survives hundreds of iterations, fast enough
// that an early outlier does not pin the bounds loose forever.
constexpr double kSensitivityDecay = 0.995;

// Feature drift below this is treated as zero when attributing an
// observed |dQ| to drift vs. training.
constexpr double kDriftEps = 1e-12;

// Cap on the descent boost multiplier after repeated gate fallbacks.
constexpr size_t kMaxBoost = 64;
constexpr size_t kBoostDecayStreak = 8;

}  // namespace

void ShortlistPruner::BeginIteration() {
  sensitivity_.alpha *= kSensitivityDecay;
  sensitivity_.beta *= kSensitivityDecay;
}

ShortlistPruner::Sensitivity ShortlistPruner::ApplyMove(Sensitivity s,
                                                        double dq,
                                                        double drift,
                                                        double ticks) {
  const bool has_drift = drift > kDriftEps;
  const bool has_ticks = ticks > 0.0;
  const bool covered = dq <= s.alpha * drift + s.beta * ticks;
  if (has_drift && has_ticks) {
    // A move through both signals cannot be split between them. One the
    // combined slack missed raises each sensitivity to cover it alone; an
    // unmeasured sensitivity takes the whole of any nonzero move. A
    // covered move measures nothing more: it may be all the other signal.
    if (!covered || (!s.drift_measured && dq > 0.0)) {
      s.alpha = std::max(s.alpha, dq / drift);
      s.drift_measured = true;
    }
    if (!covered || (!s.ticks_measured && dq > 0.0)) {
      s.beta = std::max(s.beta, dq / ticks);
      s.ticks_measured = true;
    }
    return s;
  }
  // One signal alone: the move is its to measure.
  if (has_drift) {
    s.drift_measured = true;
    if (!covered) s.alpha = std::max(s.alpha, 2.0 * dq / drift);
  } else if (has_ticks) {
    s.ticks_measured = true;
    if (!covered) s.beta = std::max(s.beta, 2.0 * dq / ticks);
  }
  return s;
}

void ShortlistPruner::ObserveMove(double dq, double drift, double ticks) {
  sensitivity_ = ApplyMove(sensitivity_, dq, drift, ticks);
}

void ShortlistPruner::NotePrunedSuccess(size_t exact_rows, bool recovered) {
  ++stats_.pruned_iterations;
  if (recovered) ++stats_.gate_recoveries;
  stats_.exact_rows += exact_rows;
  if (++success_streak_ >= kBoostDecayStreak) {
    success_streak_ = 0;
    boost_ = std::max<size_t>(1, boost_ / 2);
  }
}

void ShortlistPruner::NoteFullPass() { ++stats_.full_iterations; }

void ShortlistPruner::NoteGateFallback() {
  ++stats_.gate_fallbacks;
  success_streak_ = 0;
  boost_ = std::min(kMaxBoost, boost_ * 2);
}

void ShortlistPruner::NotePrecheckFallback() {
  ++stats_.precheck_fallbacks;
  success_streak_ = 0;
}

}  // namespace crowdrl::rl
