#include "rl/shortlist.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace crowdrl::rl {

namespace {

// Auto shortlist sizing: 1/16th of the grid, floored so tiny grids are
// simply scored in full (pruning only pays once the grid dwarfs the
// shortlist).
constexpr size_t kAutoShortlistDivisor = 16;
constexpr size_t kAutoShortlistFloor = 256;

// Per-iteration decay of the drift sensitivities; slow enough that a
// calibrated sensitivity survives hundreds of iterations, fast enough
// that an early outlier does not pin the bounds loose forever.
constexpr double kSensitivityDecay = 0.995;

// Feature drift below this is treated as zero when attributing an
// observed |dQ| to drift vs. training.
constexpr double kDriftEps = 1e-12;

// Cap on the shortlist boost multiplier after repeated gate fallbacks.
constexpr size_t kMaxBoost = 64;
constexpr size_t kBoostDecayStreak = 8;

// The shortlist cut: value classes per histogram level, the boundary
// class size it ranks directly, and a cap on levels.
constexpr size_t kCutBuckets = 1024;
constexpr size_t kCutRankDirectly = 16384;
constexpr size_t kCutMaxLevels = 6;

}  // namespace

ShortlistPruner::ShortlistPruner(const ShortlistOptions& options)
    : options_(options) {}

void ShortlistPruner::BeginIteration() {
  sensitivity_.alpha *= kSensitivityDecay;
  sensitivity_.beta *= kSensitivityDecay;
}

size_t ShortlistPruner::ShortlistSize(size_t num_pairs) const {
  size_t base = options_.shortlist;
  if (base == 0) {
    base = std::max(kAutoShortlistFloor, num_pairs / kAutoShortlistDivisor);
  }
  return std::min(num_pairs, base * boost_);
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

void ShortlistPruner::NotePrunedSuccess(size_t exact_rows,
                                        size_t bounded_rows, bool recovered) {
  ++stats_.pruned_iterations;
  if (recovered) ++stats_.gate_recoveries;
  stats_.exact_rows += exact_rows;
  stats_.bounded_rows += bounded_rows;
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

std::vector<uint32_t> CutShortlist(ThreadPool* pool,
                                   const std::vector<size_t>& chunks,
                                   const std::vector<double>& ub,
                                   const std::vector<uint8_t>& is_exact,
                                   size_t size) {
  CROWDRL_CHECK(ub.size() == is_exact.size());
  CROWDRL_CHECK(chunks.size() >= 2 && chunks.front() == 0 &&
                chunks.back() == ub.size());
  CROWDRL_CHECK(size > 0);
  const size_t num_chunks = chunks.size() - 1;
  const double inf = std::numeric_limits<double>::infinity();
  // The value a bound ranks by: NaN ranks with +infinity.
  const auto rank_value = [&](size_t i) {
    return std::isnan(ub[i]) ? inf : ub[i];
  };

  // Value classes that never invert the order: class 0 holds -infinity,
  // 1..kCutBuckets split a level's finite range evenly, and
  // kCutBuckets + 1 holds +infinity. A class is a monotone function of the
  // value, so a higher class always means a larger bound. Each level
  // splits the previous level's boundary class (the class holding the
  // size-th candidate) until that class is small enough to rank directly.
  struct Level {
    double lo = 0.0;
    double scale = 0.0;
    size_t boundary = 0;
  };
  const auto value_class = [&](const Level& level, double v) -> size_t {
    if (v == inf) return kCutBuckets + 1;
    if (v == -inf) return 0;
    const double x = (v - level.lo) * level.scale;
    return 1 + (x >= static_cast<double>(kCutBuckets - 1)
                    ? kCutBuckets - 1
                    : static_cast<size_t>(x));
  };
  std::vector<Level> levels;
  // Candidates in every level's boundary class so far.
  const auto in_window = [&](size_t i, double v) {
    if (is_exact[i]) return false;
    for (const Level& level : levels) {
      if (value_class(level, v) != level.boundary) return false;
    }
    return true;
  };
  constexpr size_t kClasses = kCutBuckets + 2;
  size_t need = size;  // Still to take from the window.
  for (;;) {
    // Each level spans the window's finite bounds.
    std::vector<double> lo(num_chunks, inf);
    std::vector<double> hi(num_chunks, -inf);
    ForEachChunk(pool, chunks, [&](size_t c, size_t begin, size_t end) {
      double chunk_lo = inf;
      double chunk_hi = -inf;
      for (size_t i = begin; i < end; ++i) {
        const double v = rank_value(i);
        if (std::isinf(v) || !in_window(i, v)) continue;
        chunk_lo = std::min(chunk_lo, v);
        chunk_hi = std::max(chunk_hi, v);
      }
      lo[c] = chunk_lo;
      hi[c] = chunk_hi;
    });
    Level level;
    level.lo = *std::min_element(lo.begin(), lo.end());
    const double range_hi = *std::max_element(hi.begin(), hi.end());
    level.scale = range_hi > level.lo ? static_cast<double>(kCutBuckets) /
                                            (range_hi - level.lo)
                                      : 0.0;
    if (!std::isfinite(level.scale)) level.scale = 0.0;
    std::vector<uint32_t> histograms(num_chunks * kClasses, 0);
    ForEachChunk(pool, chunks, [&](size_t c, size_t begin, size_t end) {
      uint32_t* histogram = &histograms[c * kClasses];
      for (size_t i = begin; i < end; ++i) {
        const double v = rank_value(i);
        if (in_window(i, v)) ++histogram[value_class(level, v)];
      }
    });
    size_t in_class = 0;
    bool found = false;
    level.boundary = kClasses;
    while (!found && level.boundary > 0) {
      --level.boundary;
      in_class = 0;
      for (size_t c = 0; c < num_chunks; ++c) {
        in_class += histograms[c * kClasses + level.boundary];
      }
      found = need <= in_class;
      if (!found) need -= in_class;
    }
    CROWDRL_CHECK(found) << "shortlist size exceeds the unscored count";
    levels.push_back(level);
    // Small enough, or not splittable further: infinity or equal values.
    if (in_class <= kCutRankDirectly || level.scale == 0.0 ||
        level.boundary == 0 || level.boundary == kClasses - 1 ||
        levels.size() >= kCutMaxLevels) {
      break;
    }
  }

  // The window's candidates; the need-th of them in the total order is the
  // last one taken.
  std::vector<uint32_t> window = GatherIndices<uint32_t>(
      pool, chunks, [&](size_t i) { return in_window(i, rank_value(i)); });
  const auto first = [&](uint32_t a, uint32_t b) {
    const double va = rank_value(a);
    const double vb = rank_value(b);
    return va > vb || (va == vb && a < b);
  };
  std::nth_element(window.begin(),
                   window.begin() + static_cast<ptrdiff_t>(need - 1),
                   window.end(), first);
  const uint32_t last = window[need - 1];
  const double last_value = rank_value(last);

  // Everything up to the last one taken, in index order.
  return GatherIndices<uint32_t>(pool, chunks, [&](size_t i) {
    if (is_exact[i]) return false;
    const double v = rank_value(i);
    return v > last_value || (v == last_value && i <= last);
  });
}

}  // namespace crowdrl::rl
