#include "rl/score_cache.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace crowdrl::rl {

namespace {

// Max-abs element change between a block's old and new values; what the
// drift accumulators integrate at each refresh.
double MaxAbsDelta(const double* before, const double* after, size_t n) {
  double d = 0.0;
  for (size_t t = 0; t < n; ++t) {
    d = std::max(d, std::abs(after[t] - before[t]));
  }
  return d;
}

}  // namespace

void ScoreCache::Invalidate() {
  valid_ = false;
  cumulative_stats_ = CumulativeStats{};
}

// Folds last_sync_stats_ into the running totals. Every Sync consults
// 2*n + m blocks; the refreshed ones are misses, the rest hits.
void ScoreCache::AccumulateSync() {
  ++cumulative_stats_.syncs;
  if (last_sync_stats_.full_rebuild) ++cumulative_stats_.full_rebuilds;
  cumulative_stats_.objects_dirtied += last_sync_stats_.history_refreshes;
  size_t misses = last_sync_stats_.history_refreshes +
                  last_sync_stats_.classifier_refreshes +
                  last_sync_stats_.annotator_refreshes;
  size_t consulted = 2 * num_objects_ + num_annotators_;
  CROWDRL_DCHECK(misses <= consulted);
  cumulative_stats_.blocks_rebuilt += misses;
  cumulative_stats_.block_misses += misses;
  cumulative_stats_.block_hits += consulted - misses;
}

bool ScoreCache::NeedsFullRebuild(const StateView& view) const {
  if (!valid_) return true;
  if (view.answers != answers_) return true;
  if (view.answers->num_objects() != num_objects_ ||
      view.answers->num_annotators() != num_annotators_) {
    return true;
  }
  if (view.num_classes != num_classes_) return true;
  // A revision regression means the log was restored/replaced in place;
  // the touch log no longer describes our deltas.
  if (view.answers->revision() < synced_revision_) return true;
  return false;
}

void ScoreCache::RebuildAll(const StateView& view) {
  num_objects_ = view.answers->num_objects();
  num_annotators_ = view.answers->num_annotators();
  num_classes_ = view.num_classes;
  answers_ = view.answers;

  object_blocks_ = Matrix(num_objects_, StateFeaturizer::kObjectBlockDim);
  annotator_blocks_ =
      Matrix(num_annotators_, StateFeaturizer::kAnnotatorBlockDim);
  touch_stamp_.assign(num_objects_, 0);
  sync_counter_ = 0;
  object_drift_.assign(num_objects_, 0.0);
  annotator_drift_.assign(num_annotators_, 0.0);
  global_drift_ = 0.0;
  ++rebuild_epoch_;
  ResizeBuckets();

  for (size_t i = 0; i < num_objects_; ++i) {
    double* block = object_blocks_.Row(i);
    StateFeaturizer::ComputeObjectHistoryBlock(view, static_cast<int>(i),
                                               &scratch_, block);
    StateFeaturizer::ComputeObjectClassifierBlock(
        view, static_cast<int>(i), block + StateFeaturizer::kObjectHistoryDim);
  }
  for (size_t j = 0; j < num_annotators_; ++j) {
    StateFeaturizer::ComputeAnnotatorBlock(view, static_cast<int>(j),
                                           annotator_blocks_.Row(j));
  }
  ++object_blocks_version_;
  ++annotator_blocks_version_;

  synced_revision_ = view.answers->revision();
  class_probs_ = view.class_probs;
  class_probs_version_ = view.class_probs_version;
  snap_qualities_ = *view.annotator_qualities;
  snap_costs_ = *view.annotator_costs;
  if (view.annotator_is_expert != nullptr) {
    snap_is_expert_ = *view.annotator_is_expert;
  } else {
    snap_is_expert_.assign(num_annotators_, false);
  }
  snap_max_cost_ = view.max_cost;

  last_sync_stats_ = SyncStats{};
  last_sync_stats_.full_rebuild = true;
  last_sync_stats_.history_refreshes = num_objects_;
  last_sync_stats_.classifier_refreshes = num_objects_;
  last_sync_stats_.annotator_refreshes = num_annotators_;
  valid_ = true;
}

void ScoreCache::Sync(const StateView& view) {
  CROWDRL_DCHECK(view.answers != nullptr);
  CROWDRL_DCHECK(view.annotator_costs != nullptr);
  CROWDRL_DCHECK(view.annotator_qualities != nullptr);
  CROWDRL_DCHECK(view.num_classes >= 2);
  CROWDRL_DCHECK(view.annotator_costs->size() ==
                 view.answers->num_annotators());
  CROWDRL_DCHECK(view.annotator_qualities->size() ==
                 view.answers->num_annotators());

  if (NeedsFullRebuild(view)) {
    RebuildAll(view);
    StateFeaturizer::ComputeGlobalBlock(view, global_block_);
    AccumulateSync();
    return;
  }

  last_sync_stats_ = SyncStats{};
  bool object_blocks_changed = false;

  // Object history part: exactly the objects answered since our revision.
  crowd::IntSpan touched = view.answers->TouchedSince(synced_revision_);
  if (!touched.empty()) {
    ++sync_counter_;
    for (int object : touched) {
      size_t i = static_cast<size_t>(object);
      if (touch_stamp_[i] == sync_counter_) continue;  // Already refreshed.
      touch_stamp_[i] = sync_counter_;
      double before[StateFeaturizer::kObjectHistoryDim];
      std::copy(object_blocks_.Row(i),
                object_blocks_.Row(i) + StateFeaturizer::kObjectHistoryDim,
                before);
      StateFeaturizer::ComputeObjectHistoryBlock(view, object, &scratch_,
                                                 object_blocks_.Row(i));
      object_drift_[i] += MaxAbsDelta(before, object_blocks_.Row(i),
                                      StateFeaturizer::kObjectHistoryDim);
      MarkBucketDirty(i);
      ++last_sync_stats_.history_refreshes;
    }
    object_blocks_changed = true;
    synced_revision_ = view.answers->revision();
  }

  // Object classifier part: refreshed for all objects whenever class_probs
  // changes. Version 0 means the producer does not version the matrix, so
  // we conservatively refresh every Sync.
  bool classifier_dirty = view.class_probs != class_probs_ ||
                          view.class_probs_version != class_probs_version_ ||
                          view.class_probs_version == 0;
  if (classifier_dirty) {
    constexpr size_t kClsDim =
        StateFeaturizer::kObjectBlockDim - StateFeaturizer::kObjectHistoryDim;
    for (size_t i = 0; i < num_objects_; ++i) {
      double* cls = object_blocks_.Row(i) + StateFeaturizer::kObjectHistoryDim;
      double before[kClsDim];
      std::copy(cls, cls + kClsDim, before);
      StateFeaturizer::ComputeObjectClassifierBlock(view, static_cast<int>(i),
                                                    cls);
      object_drift_[i] += MaxAbsDelta(before, cls, kClsDim);
    }
    last_sync_stats_.classifier_refreshes = num_objects_;
    class_probs_ = view.class_probs;
    class_probs_version_ = view.class_probs_version;
    MarkAllBucketsDirty();
    object_blocks_changed = true;
  }

  // Annotator block: value-compare against the snapshot. A max_cost change
  // renormalizes every annotator's cost columns.
  bool all_annotators_dirty = view.max_cost != snap_max_cost_;
  bool annotator_blocks_changed = false;
  for (size_t j = 0; j < num_annotators_; ++j) {
    bool expert = view.annotator_is_expert != nullptr &&
                  (*view.annotator_is_expert)[j];
    bool dirty = all_annotators_dirty ||
                 (*view.annotator_qualities)[j] != snap_qualities_[j] ||
                 (*view.annotator_costs)[j] != snap_costs_[j] ||
                 expert != snap_is_expert_[j];
    if (!dirty) continue;
    double before[StateFeaturizer::kAnnotatorBlockDim];
    std::copy(annotator_blocks_.Row(j),
              annotator_blocks_.Row(j) + StateFeaturizer::kAnnotatorBlockDim,
              before);
    StateFeaturizer::ComputeAnnotatorBlock(view, static_cast<int>(j),
                                           annotator_blocks_.Row(j));
    annotator_drift_[j] += MaxAbsDelta(before, annotator_blocks_.Row(j),
                                       StateFeaturizer::kAnnotatorBlockDim);
    snap_qualities_[j] = (*view.annotator_qualities)[j];
    snap_costs_[j] = (*view.annotator_costs)[j];
    snap_is_expert_[j] = expert;
    ++last_sync_stats_.annotator_refreshes;
    annotator_blocks_changed = true;
  }
  snap_max_cost_ = view.max_cost;

  if (object_blocks_changed) ++object_blocks_version_;
  if (annotator_blocks_changed) ++annotator_blocks_version_;

  // Global block: 3 values, patched in place every Sync.
  double global_before[StateFeaturizer::kGlobalBlockDim];
  std::copy(global_block_, global_block_ + StateFeaturizer::kGlobalBlockDim,
            global_before);
  StateFeaturizer::ComputeGlobalBlock(view, global_block_);
  global_drift_ += MaxAbsDelta(global_before, global_block_,
                               StateFeaturizer::kGlobalBlockDim);
  AccumulateSync();
}

void ScoreCache::ConfigureObjectBuckets(size_t objects_per_bucket) {
  bucket_stride_ = objects_per_bucket;
  ResizeBuckets();
}

void ScoreCache::ResizeBuckets() {
  if (bucket_stride_ == 0 || num_objects_ == 0) {
    bucket_width_.clear();
    bucket_dirty_.clear();
    return;
  }
  const size_t buckets =
      (num_objects_ + bucket_stride_ - 1) / bucket_stride_;
  bucket_width_.assign(buckets, 0.0);
  bucket_dirty_.assign(buckets, 1);
}

void ScoreCache::RefreshBucketBoxes() {
  if (bucket_stride_ == 0) return;
  CROWDRL_CHECK(valid_) << "RefreshBucketBoxes requires a prior Sync";
  constexpr size_t kDim = StateFeaturizer::kObjectBlockDim;
  for (size_t b = 0; b < bucket_width_.size(); ++b) {
    if (!bucket_dirty_[b]) continue;
    bucket_dirty_[b] = 0;
    const size_t begin = b * bucket_stride_;
    const size_t end = std::min(begin + bucket_stride_, num_objects_);
    double lo[kDim];
    double hi[kDim];
    std::copy(object_blocks_.Row(begin), object_blocks_.Row(begin) + kDim,
              lo);
    std::copy(lo, lo + kDim, hi);
    for (size_t i = begin + 1; i < end; ++i) {
      const double* row = object_blocks_.Row(i);
      for (size_t d = 0; d < kDim; ++d) {
        lo[d] = std::min(lo[d], row[d]);
        hi[d] = std::max(hi[d], row[d]);
      }
    }
    double width = 0.0;
    for (size_t d = 0; d < kDim; ++d) width = std::max(width, hi[d] - lo[d]);
    bucket_width_[b] = width;
  }
}

void ScoreCache::AssembleRowInto(int object, int annotator,
                                 double* row) const {
  CROWDRL_DCHECK(valid_);
  CROWDRL_DCHECK(object >= 0 && static_cast<size_t>(object) < num_objects_);
  CROWDRL_DCHECK(annotator >= 0 &&
                 static_cast<size_t>(annotator) < num_annotators_);
  StateFeaturizer::AssembleRow(
      object_blocks_.Row(static_cast<size_t>(object)),
      annotator_blocks_.Row(static_cast<size_t>(annotator)), global_block_,
      row);
}

}  // namespace crowdrl::rl
