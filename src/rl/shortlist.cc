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

// Fewest pairs per RecordExact chunk: each chunk pays a dispatch.
constexpr size_t kRecordMinChunk = 16384;

// The shortlist cut: value classes per histogram level, the boundary
// class size it ranks directly, and a cap on levels.
constexpr size_t kCutBuckets = 1024;
constexpr size_t kCutRankDirectly = 16384;
constexpr size_t kCutMaxLevels = 6;

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
  sensitivity_.alpha *= kSensitivityDecay;
  sensitivity_.beta *= kSensitivityDecay;
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
  ub->resize(pairs.size());
  return UpperBounds(cache, train_steps, pairs, bonus, 0, pairs.size(), ub);
}

size_t ShortlistPruner::UpperBounds(const ScoreCache& cache,
                                    size_t train_steps,
                                    const std::vector<Action>& pairs,
                                    const std::vector<double>& bonus,
                                    size_t begin, size_t end,
                                    std::vector<double>* ub) const {
  CROWDRL_CHECK(ub != nullptr && ub->size() == pairs.size());
  CROWDRL_CHECK(bonus.size() == pairs.size());
  CROWDRL_CHECK(begin <= end && end <= pairs.size());
  const std::vector<double>& obj_drift = cache.object_drift();
  const std::vector<double>& ann_drift = cache.annotator_drift();
  const double glob_drift = cache.global_drift();
  size_t must_score = 0;
  // Pairs arrive in ascending object order, so consecutive lookups almost
  // always hit the same shard: cache the last resolution.
  size_t cached_shard = std::numeric_limits<size_t>::max();
  const TableShard* data = nullptr;
  for (size_t i = begin; i < end; ++i) {
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
    if ((drift > kDriftEps && !sensitivity_.drift_measured) ||
        (ticks > 0.0 && !sensitivity_.ticks_measured)) {
      (*ub)[i] = std::numeric_limits<double>::infinity();
      ++must_score;
      continue;
    }
    (*ub)[i] = data->stale_q[p] + sensitivity_.alpha * drift +
               sensitivity_.beta * ticks + kBoundMargin + bonus[i];
  }
  return must_score;
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

size_t ShortlistPruner::RecordExact(const ScoreCache& cache,
                                    size_t train_steps,
                                    const std::vector<Action>& pairs,
                                    const std::vector<double>& raw_q,
                                    const std::vector<double>* prior_ub,
                                    const std::vector<double>* bonus,
                                    ThreadPool* pool) {
  CROWDRL_CHECK(raw_q.size() == pairs.size());
  CROWDRL_CHECK((prior_ub == nullptr) == (bonus == nullptr));
  const std::vector<size_t> chunks =
      EvenChunks(pairs.size(), pool, kRecordMinChunk);
  const size_t num_chunks = chunks.size() - 1;

  // Shards first, so the chunks below only look the map up: each chunk
  // flags the shards it touches, and the missing ones are created here.
  std::vector<std::vector<uint8_t>> touched(num_chunks);
  ForEachChunk(pool, chunks, [&](size_t c, size_t begin, size_t end) {
    std::vector<uint8_t>& flags = touched[c];
    flags.assign(table_.num_shards(), 0);
    size_t last = std::numeric_limits<size_t>::max();
    for (size_t i = begin; i < end; ++i) {
      const size_t shard =
          table_.ShardIndexOf(static_cast<size_t>(pairs[i].object));
      if (shard != last) flags[shard] = 1;
      last = shard;
    }
  });
  std::vector<size_t> missing;
  for (size_t shard = 0; shard < table_.num_shards(); ++shard) {
    if (table_.GetShard(shard) != nullptr) continue;
    for (size_t c = 0; c < num_chunks; ++c) {
      if (touched[c][shard]) {
        missing.push_back(shard);
        break;
      }
    }
  }
  // New shards are zero-filled on the pool's lanes, one task per shard.
  ForEachChunk(pool, EvenChunks(missing.size(), pool, 1),
               [&](size_t, size_t begin, size_t end) {
                 for (size_t m = begin; m < end; ++m) {
                   table_.GetOrCreateShard(missing[m]);
                 }
               });

  // One rescore's measured move: |dq| and the drift and train steps the
  // stale entry aged through.
  struct Move {
    double dq;
    double drift;
    double ticks;
  };
  const Sensitivity start = sensitivity_;
  std::vector<std::vector<Move>> moves(num_chunks);
  std::vector<size_t> violations(num_chunks, 0);
  const std::vector<double>& obj_drift = cache.object_drift();
  const std::vector<double>& ann_drift = cache.annotator_drift();
  const double glob_drift = cache.global_drift();
  ForEachChunk(pool, chunks, [&](size_t c, size_t begin, size_t end) {
    size_t cached_shard = std::numeric_limits<size_t>::max();
    TableShard* data = nullptr;
    size_t chunk_violations = 0;
    for (size_t i = begin; i < end; ++i) {
      const size_t o = static_cast<size_t>(pairs[i].object);
      const size_t a = static_cast<size_t>(pairs[i].annotator);
      const size_t shard = table_.ShardIndexOf(o);
      if (shard != cached_shard) {
        cached_shard = shard;
        data = table_.GetShardMutable(shard);
      }
      const size_t p = table_.OffsetOf(o, a);
      if (data->valid[p]) {
        // Adapt the sensitivities from this rescore: the slack we budgeted
        // must have covered the move we actually observed (with 2x
        // headroom), whatever direction it took.
        const Move move{std::abs(raw_q[i] - data->stale_q[p]),
                        (obj_drift[o] - data->snap_obj[p]) +
                            (ann_drift[a] - data->snap_ann[p]) +
                            (glob_drift - data->snap_glob[p]),
                        static_cast<double>(train_steps - data->stale_step[p])};
        if (!(ApplyMove(start, move.dq, move.drift, move.ticks) == start)) {
          moves[c].push_back(move);
        }
        if (prior_ub != nullptr && raw_q[i] + (*bonus)[i] > (*prior_ub)[i]) {
          ++chunk_violations;
        }
      }
      data->stale_q[p] = raw_q[i];
      data->snap_obj[p] = obj_drift[o];
      data->snap_ann[p] = ann_drift[a];
      data->snap_glob[p] = glob_drift;
      data->stale_step[p] = static_cast<uint32_t>(train_steps);
      data->valid[p] = 1;
    }
    violations[c] = chunk_violations;
  });
  size_t total_violations = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    for (const Move& move : moves[c]) {
      ObserveMove(move.dq, move.drift, move.ticks);
    }
    total_violations += violations[c];
  }
  return total_violations;
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
