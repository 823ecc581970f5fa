#ifndef CROWDRL_RL_SCORE_CACHE_H_
#define CROWDRL_RL_SCORE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/matrix.h"
#include "rl/state.h"

namespace crowdrl::rl {

/// \brief Persistent per-object / per-annotator feature-block cache that
/// turns full-grid featurization into block assembly.
///
/// The seed scoring loop featurizes all O(n*m) candidate pairs from scratch
/// every iteration, but pair (i, j)'s feature row factors into an
/// object-only block, an annotator-only block, and a 3-value global block
/// (see StateFeaturizer). Between iterations only a handful of objects
/// receive answers and annotator statistics change at most once per
/// inference round, so almost every block is unchanged. This cache keeps
/// the n x 5 object blocks and m x 4 annotator blocks resident, recomputes
/// only the dirty ones on Sync, and serves feature rows as pure copies.
///
/// Dirty tracking per block:
///  - object history part (row columns 1..3): objects reported by
///    AnswerLog::TouchedSince since the last synced revision;
///  - object classifier part (columns 4..5): refreshed for all objects when
///    class_probs (pointer or version) changes; a version of 0 means
///    "unversioned" and refreshes every Sync (slower, still exact);
///  - annotator block (columns 6..9): value-compared against a snapshot of
///    (quality, cost, expert) and max_cost, refreshed per annotator on
///    mismatch;
///  - global block (columns {0, 10, 11}): recomputed every Sync (3 values).
///
/// Blocks are computed by the same StateFeaturizer helpers the naive path
/// uses, so assembled rows are bit-identical to from-scratch featurization.
///
/// The cache is deliberately NOT checkpointed: every block is a pure
/// function of the StateView, so restoring a run and letting the cache
/// rebuild on the next Sync reproduces the same bits. Owners (DqnAgent)
/// call Invalidate on LoadState/BeginEpisode.
///
/// Threading: Sync mutates and must be called from one thread;
/// AssembleRowInto is const and safe to call concurrently after Sync.
class ScoreCache {
 public:
  /// Per-Sync refresh counters (for benchmarks and tests).
  struct SyncStats {
    bool full_rebuild = false;
    size_t history_refreshes = 0;    // Objects whose history part recomputed.
    size_t classifier_refreshes = 0; // Objects whose cls part recomputed.
    size_t annotator_refreshes = 0;  // Annotators recomputed.
  };

  /// Running totals across Syncs since the last Invalidate. A "block" is
  /// one cached unit consulted per Sync — an object history part, an
  /// object classifier part, or an annotator block (the 3-value global
  /// block is unconditionally repatched and not counted). A block that
  /// had to be recomputed is a miss; one served as-is is a hit, so
  /// hits + misses == syncs * (2 * num_objects + num_annotators).
  struct CumulativeStats {
    size_t syncs = 0;
    size_t full_rebuilds = 0;
    size_t objects_dirtied = 0;  // History refreshes (answer-touched objects).
    size_t blocks_rebuilt = 0;   // All misses (== block_misses).
    size_t block_hits = 0;
    size_t block_misses = 0;
  };

  ScoreCache() = default;

  /// Drops all cached state; the next Sync rebuilds every block.
  void Invalidate();

  /// Brings all blocks up to date with `view`. Cheap after the first call:
  /// only dirty blocks recompute. Must see every view transition — syncing
  /// against a different AnswerLog (or after an in-place restore) is
  /// detected by pointer/shape/revision and triggers a full rebuild, but
  /// callers that mutate the same log outside Record must Invalidate.
  void Sync(const StateView& view);

  /// Writes the feature row for (object, annotator) into `row`
  /// (StateFeaturizer::kFeatureDim doubles). Pure copies from the cached
  /// blocks; requires a prior Sync on this view.
  void AssembleRowInto(int object, int annotator, double* row) const;

  /// Cached blocks, for the factorized Q head: object_blocks() is
  /// n x kObjectBlockDim, annotator_blocks() is m x kAnnotatorBlockDim,
  /// global_block() points at kGlobalBlockDim doubles.
  const Matrix& object_blocks() const { return object_blocks_; }
  const Matrix& annotator_blocks() const { return annotator_blocks_; }
  const double* global_block() const { return global_block_; }

  /// Change counters for the cached blocks: bump whenever any row of the
  /// corresponding block matrix changes. Keys for downstream caches of
  /// block-derived products (QNetwork's factorized partials).
  size_t object_blocks_version() const { return object_blocks_version_; }
  size_t annotator_blocks_version() const { return annotator_blocks_version_; }

  /// Monotone drift accumulators, the staleness signal for shortlist
  /// pruning (ShortlistPruner). Every time a block is refreshed with
  /// different values, the max-abs element change is added to that
  /// block's accumulator; a pruner that snapshotted the accumulator when
  /// it last scored a pair exactly can bound how much the pair's features
  /// have moved since as (current accumulator - snapshot). Reset to zero
  /// by a full rebuild — consumers must drop their snapshots whenever
  /// rebuild_epoch() changes.
  const std::vector<double>& object_drift() const { return object_drift_; }
  const std::vector<double>& annotator_drift() const {
    return annotator_drift_;
  }
  double global_drift() const { return global_drift_; }

  /// Monotone count of full rebuilds over the cache's whole lifetime —
  /// unlike cumulative_stats().full_rebuilds it is NOT reset by
  /// Invalidate, so a change always means the drift accumulators
  /// restarted from zero since the consumer last looked.
  size_t rebuild_epoch() const { return rebuild_epoch_; }

  /// Object-bucket aggregates for the hierarchical candidate generator:
  /// bucket b covers objects [b * stride, (b+1) * stride). When enabled,
  /// Sync tracks which buckets' object blocks changed and
  /// RefreshBucketBoxes recomputes just those buckets' value boxes. The
  /// bucket width — max over block dimensions of (max - min) within the
  /// bucket — is the max-abs-metric diameter of the bucket's object
  /// blocks, i.e. the radius term a tile bound charges against the
  /// pruner's alpha sensitivity (see rl::BucketHierarchy). Stride 0 (the
  /// default) disables the aggregates entirely.
  void ConfigureObjectBuckets(size_t objects_per_bucket);
  size_t object_bucket_stride() const { return bucket_stride_; }
  size_t num_object_buckets() const { return bucket_width_.size(); }

  /// Recomputes the boxes of buckets dirtied since the last call. Call
  /// after Sync, before reading ObjectBucketWidth.
  void RefreshBucketBoxes();

  /// Max-abs diameter of bucket `bucket`'s object blocks, as of the last
  /// RefreshBucketBoxes.
  double ObjectBucketWidth(size_t bucket) const {
    return bucket_width_[bucket];
  }

  const SyncStats& last_sync_stats() const { return last_sync_stats_; }

  /// Totals since the last Invalidate (which LoadState/BeginEpisode
  /// trigger, so stats never leak across episodes or restores).
  const CumulativeStats& cumulative_stats() const { return cumulative_stats_; }

 private:
  bool NeedsFullRebuild(const StateView& view) const;
  void RebuildAll(const StateView& view);

  bool valid_ = false;
  // Identity of the synced view, for full-rebuild detection.
  const crowd::AnswerLog* answers_ = nullptr;
  size_t num_objects_ = 0;
  size_t num_annotators_ = 0;
  int num_classes_ = 0;
  size_t synced_revision_ = 0;
  // Classifier-column inputs.
  const Matrix* class_probs_ = nullptr;
  size_t class_probs_version_ = 0;
  // Annotator-block input snapshot (value-compared each Sync).
  std::vector<double> snap_qualities_;
  std::vector<double> snap_costs_;
  std::vector<bool> snap_is_expert_;
  double snap_max_cost_ = 0.0;

  Matrix object_blocks_;     // n x kObjectBlockDim.
  Matrix annotator_blocks_;  // m x kAnnotatorBlockDim.
  double global_block_[StateFeaturizer::kGlobalBlockDim] = {0.0, 0.0, 0.0};
  size_t object_blocks_version_ = 0;
  size_t annotator_blocks_version_ = 0;

  // Per-block cumulative max-abs value drift since the last full rebuild.
  std::vector<double> object_drift_;
  std::vector<double> annotator_drift_;
  double global_drift_ = 0.0;
  size_t rebuild_epoch_ = 0;  // Lifetime rebuilds; survives Invalidate.

  // Dedupe stamp for objects touched multiple times between syncs.
  std::vector<size_t> touch_stamp_;
  size_t sync_counter_ = 0;

  // Object-bucket aggregates (0 stride = disabled).
  size_t bucket_stride_ = 0;
  std::vector<double> bucket_width_;
  std::vector<uint8_t> bucket_dirty_;

  void MarkBucketDirty(size_t object) {
    if (bucket_stride_ != 0 && !bucket_dirty_.empty()) {
      bucket_dirty_[object / bucket_stride_] = 1;
    }
  }
  void MarkAllBucketsDirty() {
    if (bucket_stride_ != 0) {
      bucket_dirty_.assign(bucket_dirty_.size(), 1);
    }
  }
  void ResizeBuckets();

  void AccumulateSync();

  StateFeaturizer::Scratch scratch_;
  SyncStats last_sync_stats_;
  CumulativeStats cumulative_stats_;
};

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_SCORE_CACHE_H_
