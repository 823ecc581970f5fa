#include "rl/shortlist.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

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

}  // namespace

ShortlistPruner::ShortlistPruner(const ShortlistOptions& options)
    : options_(options) {}

void ShortlistPruner::Reset(size_t num_objects, size_t num_annotators) {
  table_.Reset(num_objects, num_annotators);
  epoch_seen_ = false;
}

void ShortlistPruner::BeginIteration(const ScoreCache& cache) {
  const size_t rebuilds = cache.rebuild_epoch();
  if (!epoch_seen_ || rebuilds != seen_full_rebuilds_) {
    // The drift accumulators reset on a full rebuild, so every snapshot
    // in the table now measures against the wrong origin: drop them all
    // (the shards deallocate; ranges re-materialize on their next
    // rescore).
    table_.Clear();
    seen_full_rebuilds_ = rebuilds;
    epoch_seen_ = true;
  }
  alpha_ *= kSensitivityDecay;
  beta_ *= kSensitivityDecay;
}

void ShortlistPruner::EvictAnnotator(int annotator) {
  if (table_.num_annotators() == 0) return;  // Reset has not run yet.
  CROWDRL_CHECK(annotator >= 0 &&
                static_cast<size_t>(annotator) < table_.num_annotators());
  const size_t j = static_cast<size_t>(annotator);
  const size_t stride = table_.num_annotators();
  table_.ForEachAllocated([&](size_t shard, TableShard& data) {
    const auto [begin, end] = table_.ShardRange(shard);
    for (size_t o = 0; o < end - begin; ++o) {
      data.valid[o * stride + j] = 0;
    }
  });
}

size_t ShortlistPruner::ShortlistSize(size_t num_pairs,
                                      size_t must_score) const {
  size_t base = options_.shortlist;
  if (base == 0) {
    base = std::max(kAutoShortlistFloor, num_pairs / kAutoShortlistDivisor);
  }
  base *= boost_;
  return std::min(num_pairs, base + must_score);
}

size_t ShortlistPruner::UpperBounds(const ScoreCache& cache,
                                    size_t train_steps,
                                    const std::vector<Action>& pairs,
                                    const std::vector<double>& bonus,
                                    std::vector<double>* ub) const {
  CROWDRL_CHECK(ub != nullptr);
  CROWDRL_CHECK(bonus.size() == pairs.size());
  ub->resize(pairs.size());
  const std::vector<double>& obj_drift = cache.object_drift();
  const std::vector<double>& ann_drift = cache.annotator_drift();
  const double glob_drift = cache.global_drift();
  size_t must_score = 0;
  // Pairs arrive in ascending object order, so consecutive lookups almost
  // always hit the same shard: cache the last resolution.
  size_t cached_shard = std::numeric_limits<size_t>::max();
  const TableShard* data = nullptr;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t o = static_cast<size_t>(pairs[i].object);
    const size_t a = static_cast<size_t>(pairs[i].annotator);
    const size_t shard = table_.ShardIndexOf(o);
    if (shard != cached_shard) {
      cached_shard = shard;
      data = table_.GetShard(shard);
    }
    const size_t p = table_.OffsetOf(o, a);
    if (data == nullptr || !data->valid[p]) {
      (*ub)[i] = std::numeric_limits<double>::infinity();
      ++must_score;
      continue;
    }
    const double drift = (obj_drift[o] - data->snap_obj[p]) +
                         (ann_drift[a] - data->snap_ann[p]) +
                         (glob_drift - data->snap_glob[p]);
    const double ticks =
        static_cast<double>(train_steps - data->stale_step[p]);
    // A sensitivity that has never measured a move bounds nothing: a pair
    // that aged through drift or training before then is must-score.
    if ((drift > kDriftEps && !drift_measured_) ||
        (ticks > 0.0 && !ticks_measured_)) {
      (*ub)[i] = std::numeric_limits<double>::infinity();
      ++must_score;
      continue;
    }
    (*ub)[i] = data->stale_q[p] + alpha_ * drift + beta_ * ticks +
               kBoundMargin + bonus[i];
  }
  return must_score;
}

void ShortlistPruner::ObserveMove(double dq, double drift, double ticks) {
  const bool has_drift = drift > kDriftEps;
  const bool has_ticks = ticks > 0.0;
  const bool covered = dq <= alpha_ * drift + beta_ * ticks;
  if (has_drift && has_ticks) {
    // A move through both signals cannot be split between them. One the
    // combined slack missed raises each sensitivity to cover it alone; an
    // unmeasured sensitivity takes the whole of any nonzero move. A
    // covered move measures nothing more: it may be all the other signal.
    if (!covered || (!drift_measured_ && dq > 0.0)) {
      alpha_ = std::max(alpha_, dq / drift);
      drift_measured_ = true;
    }
    if (!covered || (!ticks_measured_ && dq > 0.0)) {
      beta_ = std::max(beta_, dq / ticks);
      ticks_measured_ = true;
    }
    return;
  }
  // One signal alone: the move is its to measure.
  if (has_drift) {
    drift_measured_ = true;
    if (!covered) alpha_ = std::max(alpha_, 2.0 * dq / drift);
  } else if (has_ticks) {
    ticks_measured_ = true;
    if (!covered) beta_ = std::max(beta_, 2.0 * dq / ticks);
  }
}

size_t ShortlistPruner::RecordExact(const ScoreCache& cache,
                                    size_t train_steps,
                                    const std::vector<Action>& pairs,
                                    const std::vector<double>& raw_q,
                                    const std::vector<double>* prior_ub,
                                    const std::vector<double>* bonus) {
  CROWDRL_CHECK(raw_q.size() == pairs.size());
  CROWDRL_CHECK((prior_ub == nullptr) == (bonus == nullptr));
  const std::vector<double>& obj_drift = cache.object_drift();
  const std::vector<double>& ann_drift = cache.annotator_drift();
  const double glob_drift = cache.global_drift();
  size_t violations = 0;
  size_t cached_shard = std::numeric_limits<size_t>::max();
  TableShard* data = nullptr;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t o = static_cast<size_t>(pairs[i].object);
    const size_t a = static_cast<size_t>(pairs[i].annotator);
    const size_t shard = table_.ShardIndexOf(o);
    if (shard != cached_shard || data == nullptr) {
      cached_shard = shard;
      data = table_.GetOrCreate(o);
    }
    const size_t p = table_.OffsetOf(o, a);
    if (data->valid[p]) {
      // Adapt the sensitivities from this rescore: the slack we budgeted
      // must have covered the move we actually observed (with 2x
      // headroom), whatever direction it took.
      const double dq = std::abs(raw_q[i] - data->stale_q[p]);
      const double drift = (obj_drift[o] - data->snap_obj[p]) +
                           (ann_drift[a] - data->snap_ann[p]) +
                           (glob_drift - data->snap_glob[p]);
      const double ticks =
          static_cast<double>(train_steps - data->stale_step[p]);
      ObserveMove(dq, drift, ticks);
      if (prior_ub != nullptr &&
          raw_q[i] + (*bonus)[i] > (*prior_ub)[i]) {
        ++violations;
      }
    }
    data->stale_q[p] = raw_q[i];
    data->snap_obj[p] = obj_drift[o];
    data->snap_ann[p] = ann_drift[a];
    data->snap_glob[p] = glob_drift;
    data->stale_step[p] = static_cast<uint32_t>(train_steps);
    data->valid[p] = 1;
  }
  return violations;
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

}  // namespace crowdrl::rl
