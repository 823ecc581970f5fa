#include "rl/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace crowdrl::rl {

void BucketHierarchy::Reset(size_t num_objects, size_t num_annotators,
                            const HierarchyOptions& options) {
  CROWDRL_CHECK(num_objects > 0 && num_annotators > 0);
  CROWDRL_CHECK(options.object_bucket > 0 && options.annotator_group > 0);
  options_ = options;
  num_objects_ = num_objects;
  num_annotators_ = num_annotators;
  num_buckets_ =
      (num_objects + options.object_bucket - 1) / options.object_bucket;
  num_groups_ =
      (num_annotators + options.annotator_group - 1) / options.annotator_group;
  records_.assign(num_buckets_ * num_groups_, TileRecord{});
  group_width_.assign(num_groups_, 0.0);
  bucket_unlabelled_.assign(num_buckets_, 0);
  group_affordable_.assign(num_groups_, 0);
  epoch_seen_ = false;
}

std::pair<size_t, size_t> BucketHierarchy::BucketRange(size_t bucket) const {
  CROWDRL_DCHECK(bucket < num_buckets_);
  const size_t begin = bucket * options_.object_bucket;
  return {begin, std::min(begin + options_.object_bucket, num_objects_)};
}

std::pair<size_t, size_t> BucketHierarchy::GroupRange(size_t group) const {
  CROWDRL_DCHECK(group < num_groups_);
  const size_t begin = group * options_.annotator_group;
  return {begin, std::min(begin + options_.annotator_group, num_annotators_)};
}

void BucketHierarchy::BeginIteration(const ScoreCache& cache,
                                     const std::vector<bool>& labelled,
                                     const std::vector<bool>& affordable) {
  CROWDRL_CHECK(labelled.size() == num_objects_);
  CROWDRL_CHECK(affordable.size() == num_annotators_);
  CROWDRL_CHECK(cache.object_bucket_stride() == options_.object_bucket)
      << "the cache's bucket aggregates must use the hierarchy's stride";
  CROWDRL_CHECK(cache.num_object_buckets() == num_buckets_);

  const size_t rebuilds = cache.rebuild_epoch();
  if (!epoch_seen_ || rebuilds != seen_full_rebuilds_) {
    // The drift accumulators restarted, so every record measures against
    // the wrong origin.
    std::fill(records_.begin(), records_.end(), TileRecord{});
    seen_full_rebuilds_ = rebuilds;
    epoch_seen_ = true;
  }

  // Liveness tallies: O(|O| + |W|), the only per-object work this layer
  // ever does.
  std::fill(bucket_unlabelled_.begin(), bucket_unlabelled_.end(), 0);
  for (size_t i = 0; i < num_objects_; ++i) {
    if (!labelled[i]) ++bucket_unlabelled_[i / options_.object_bucket];
  }
  std::fill(group_affordable_.begin(), group_affordable_.end(), 0);
  for (size_t j = 0; j < num_annotators_; ++j) {
    if (affordable[j]) ++group_affordable_[j / options_.annotator_group];
  }

  // Group widths: max-abs diameter of each group's annotator blocks.
  // Annotator blocks change rarely and |W| is small next to |O|, so a
  // full recompute per iteration is cheap (kAnnotatorBlockDim values per
  // annotator). Diameters cover unaffordable annotators too — a bound
  // over a superset stays a bound.
  constexpr size_t kDim = StateFeaturizer::kAnnotatorBlockDim;
  const Matrix& blocks = cache.annotator_blocks();
  for (size_t g = 0; g < num_groups_; ++g) {
    const auto [begin, end] = GroupRange(g);
    double lo[kDim];
    double hi[kDim];
    std::copy(blocks.Row(begin), blocks.Row(begin) + kDim, lo);
    std::copy(lo, lo + kDim, hi);
    for (size_t j = begin + 1; j < end; ++j) {
      const double* row = blocks.Row(j);
      for (size_t d = 0; d < kDim; ++d) {
        lo[d] = std::min(lo[d], row[d]);
        hi[d] = std::max(hi[d], row[d]);
      }
    }
    double width = 0.0;
    for (size_t d = 0; d < kDim; ++d) width = std::max(width, hi[d] - lo[d]);
    group_width_[g] = width;
  }
}

Action BucketHierarchy::TileRep(size_t bucket, size_t group) const {
  const auto [obegin, oend] = BucketRange(bucket);
  const auto [abegin, aend] = GroupRange(group);
  return {static_cast<int>(obegin + (oend - obegin) / 2),
          static_cast<int>(abegin + (aend - abegin) / 2)};
}

void BucketHierarchy::CollectStaleReps(
    const ScoreCache& cache, size_t train_steps,
    std::vector<std::pair<size_t, size_t>>* tiles,
    std::vector<Action>* reps) const {
  CROWDRL_CHECK(tiles != nullptr && reps != nullptr);
  for (size_t b = 0; b < num_buckets_; ++b) {
    if (!BucketLive(b)) continue;
    for (size_t g = 0; g < num_groups_; ++g) {
      if (!GroupLive(g)) continue;
      const TileRecord& rec = records_[TileIndex(b, g)];
      if (rec.valid && rec.step == static_cast<uint32_t>(train_steps)) {
        const Action rep = TileRep(b, g);
        const double rep_drift =
            (cache.object_drift()[static_cast<size_t>(rep.object)] -
             rec.snap_obj) +
            (cache.annotator_drift()[static_cast<size_t>(rep.annotator)] -
             rec.snap_ann) +
            (cache.global_drift() - rec.snap_glob);
        if (rep_drift <= 0.0) continue;  // Current: nothing to refresh.
      }
      tiles->emplace_back(b, g);
      reps->push_back(TileRep(b, g));
    }
  }
}

double BucketHierarchy::TileDriftSpan(const TileRecord& rec, size_t bucket,
                                      size_t group,
                                      const ScoreCache& cache) const {
  const Action rep = TileRep(bucket, group);
  const double rep_drift =
      (cache.object_drift()[static_cast<size_t>(rep.object)] - rec.snap_obj) +
      (cache.annotator_drift()[static_cast<size_t>(rep.annotator)] -
       rec.snap_ann) +
      (cache.global_drift() - rec.snap_glob);
  return rep_drift + cache.ObjectBucketWidth(bucket) + group_width_[group];
}

void BucketHierarchy::RecordRep(size_t bucket, size_t group, double raw_q,
                                const ScoreCache& cache, size_t train_steps,
                                ShortlistPruner* pruner) {
  CROWDRL_CHECK(pruner != nullptr);
  TileRecord& rec = records_[TileIndex(bucket, group)];
  const Action rep = TileRep(bucket, group);
  if (rec.valid) {
    // The record aged through pure rep drift (no spatial span — same
    // pair): feed the observed move into the shared sensitivities.
    const double rep_drift =
        (cache.object_drift()[static_cast<size_t>(rep.object)] -
         rec.snap_obj) +
        (cache.annotator_drift()[static_cast<size_t>(rep.annotator)] -
         rec.snap_ann) +
        (cache.global_drift() - rec.snap_glob);
    pruner->ObserveMove(std::abs(raw_q - rec.q), rep_drift,
                        static_cast<double>(train_steps - rec.step));
  }
  rec.q = raw_q;
  rec.snap_obj = cache.object_drift()[static_cast<size_t>(rep.object)];
  rec.snap_ann = cache.annotator_drift()[static_cast<size_t>(rep.annotator)];
  rec.snap_glob = cache.global_drift();
  rec.step = static_cast<uint32_t>(train_steps);
  rec.valid = 1;
}

double BucketHierarchy::TileBound(size_t bucket, size_t group,
                                  const ScoreCache& cache,
                                  const ShortlistPruner& pruner,
                                  size_t train_steps, double bonus) const {
  const TileRecord& rec = records_[TileIndex(bucket, group)];
  if (!rec.valid) return std::numeric_limits<double>::infinity();
  const double ticks = static_cast<double>(train_steps - rec.step);
  return rec.q + pruner.alpha() * TileDriftSpan(rec, bucket, group, cache) +
         pruner.beta() * ticks + pruner.margin() + bonus;
}

double BucketHierarchy::BucketBound(size_t bucket, const ScoreCache& cache,
                                    const ShortlistPruner& pruner,
                                    size_t train_steps,
                                    double bonus_max) const {
  double bound = -std::numeric_limits<double>::infinity();
  for (size_t g = 0; g < num_groups_; ++g) {
    if (!GroupLive(g)) continue;
    bound = std::max(bound, TileBound(bucket, g, cache, pruner, train_steps,
                                      bonus_max));
  }
  return bound;
}

void BucketHierarchy::ObserveTileViolation(size_t bucket, size_t group,
                                           double raw_q,
                                           const ScoreCache& cache,
                                           size_t train_steps,
                                           ShortlistPruner* pruner) const {
  CROWDRL_CHECK(pruner != nullptr);
  const TileRecord& rec = records_[TileIndex(bucket, group)];
  if (!rec.valid) return;
  pruner->ObserveMove(std::abs(raw_q - rec.q),
                      TileDriftSpan(rec, bucket, group, cache),
                      static_cast<double>(train_steps - rec.step));
}

}  // namespace crowdrl::rl
