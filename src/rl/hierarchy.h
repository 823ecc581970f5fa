#ifndef CROWDRL_RL_HIERARCHY_H_
#define CROWDRL_RL_HIERARCHY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rl/action.h"
#include "rl/score_cache.h"
#include "rl/shortlist.h"

namespace crowdrl::rl {

/// Tiling of the |O| x |W| candidate grid for hierarchical candidate
/// generation (DqnAgentOptions::hier_*).
struct HierarchyOptions {
  /// Objects per bucket. Must match the ScoreCache's configured object
  /// bucket stride — bucket widths are read from there.
  size_t object_bucket = 1024;
  /// Annotators per group.
  size_t annotator_group = 128;
};

/// \brief Bucket x group tiling with per-tile score upper bounds: the
/// only bounds the gated selection engine reads.
///
/// Objects are partitioned into fixed-range buckets, annotators into
/// fixed-range groups, and each (bucket, group) tile keeps one
/// exactly-scored *representative* pair (the tile's center) with a stale
/// record — raw Q, drift accumulator snapshots, train step. A bound on ANY
/// pair (o, a) in the tile follows from the triangle inequality under the
/// Lipschitz heuristic |dQ| <= alpha * (max-abs feature distance):
///
///   Q_now(o, a) <= rep_q
///                + alpha * (rep outstanding drift          // rep aging
///                           + bucket width + group width)  // spatial span
///                + beta * train_steps_since_rep + margin + bonus
///
/// where bucket width is the max-abs diameter of the bucket's object
/// blocks (ScoreCache::ObjectBucketWidth, maintained incrementally from
/// the same dirty tracking the cache already does) and group width is
/// the diameter of the group's annotator blocks (recomputed here each
/// iteration, O(|W|)). These bounds are heuristic: exactness comes from
/// the caller's selection gate, never from the bounds (see DESIGN.md
/// "Gated selection" and "Hierarchical candidate generation").
///
/// Representatives are dropped whenever the cache full-rebuilds (their
/// drift snapshots lose their origin) and every live tile's is refreshed
/// in one small batch per iteration before any bound is read; a refresh
/// that observes a larger move than the bound predicted, and an exact
/// score above the tile bound it was admitted under, feed the alpha /
/// beta adaptation (ShortlistPruner::ObserveMove), so the bounds loosen
/// when the network drifts fast.
///
/// Storage is O(num_buckets x num_groups) — ~8k tiles for 1M x 1k —
/// never O(pairs). Owned and driven by one DqnAgent; the const bound
/// queries may run concurrently (the gate's chunked scoring pass).
class BucketHierarchy {
 public:
  void Reset(size_t num_objects, size_t num_annotators,
             const HierarchyOptions& options);

  size_t num_buckets() const { return num_buckets_; }
  size_t num_groups() const { return num_groups_; }
  size_t BucketOf(int object) const {
    return static_cast<size_t>(object) / options_.object_bucket;
  }
  size_t GroupOf(int annotator) const {
    return static_cast<size_t>(annotator) / options_.annotator_group;
  }
  std::pair<size_t, size_t> BucketRange(size_t bucket) const;
  std::pair<size_t, size_t> GroupRange(size_t group) const;

  /// Per-iteration refresh: drops every representative when the cache
  /// full-rebuilt since the last iteration, recomputes group widths from
  /// the cache's annotator blocks, and tallies liveness — a bucket is
  /// live while it holds an unlabelled object, a group while it holds an
  /// affordable annotator. The cache must be Synced, its bucket boxes
  /// refreshed, and its bucket stride must equal options.object_bucket.
  void BeginIteration(const ScoreCache& cache,
                      const std::vector<bool>& labelled,
                      const std::vector<bool>& affordable);

  size_t bucket_unlabelled(size_t bucket) const {
    return bucket_unlabelled_[bucket];
  }
  bool BucketLive(size_t bucket) const {
    return bucket_unlabelled_[bucket] > 0;
  }
  bool GroupLive(size_t group) const { return group_affordable_[group] > 0; }
  double GroupWidth(size_t group) const { return group_width_[group]; }

  /// The tile's fixed representative pair (bucket center x group center).
  /// Representatives need not be valid candidates — Q is defined for any
  /// pair, and the spatial span covers every pair in the tile either way.
  Action TileRep(size_t bucket, size_t group) const;

  /// Appends every live tile (live bucket x live group) whose
  /// representative record is invalid OR has drifted — any training step
  /// or feature drift since it was recorded. A drifted rep's staleness
  /// slack (alpha * rep drift + beta * ticks) inflates every bound drawn
  /// from its tile, and the global block drifts every iteration, so
  /// without refreshes bounds loosen monotonically and bucket-level
  /// exclusion decays to nothing; refreshing costs one exact row per
  /// live tile per iteration — O(tiles), never O(pairs). The caller
  /// exact-scores the reps in one batch and feeds them back via
  /// RecordRep, after which every live tile's bound is finite and tight.
  void CollectStaleReps(const ScoreCache& cache, size_t train_steps,
                        std::vector<std::pair<size_t, size_t>>* tiles,
                        std::vector<Action>* reps) const;

  /// Records an exact representative score, snapshotting the drift
  /// accumulators and train step. Refreshing a still-valid rep measures
  /// the move the old record aged through and feeds the pruner's
  /// sensitivity adaptation.
  void RecordRep(size_t bucket, size_t group, double raw_q,
                 const ScoreCache& cache, size_t train_steps,
                 ShortlistPruner* pruner);

  /// Upper bound on Q + bonus for any pair in the tile, charging the
  /// caller-supplied bonus term (the pair's exact bonus when bounding one
  /// pair, the grid-wide max bonus when bounding the whole tile).
  /// +infinity while the representative record is invalid.
  double TileBound(size_t bucket, size_t group, const ScoreCache& cache,
                   const ShortlistPruner& pruner, size_t train_steps,
                   double bonus) const;

  /// Max TileBound over the bucket's live groups — an upper bound on any
  /// valid pair score in the bucket. -infinity when no group is live.
  double BucketBound(size_t bucket, const ScoreCache& cache,
                     const ShortlistPruner& pruner, size_t train_steps,
                     double bonus_max) const;

  /// An exactly-scored pair beat the tile-derived bound it was admitted
  /// under: replay the move against the representative record so the
  /// shared sensitivities absorb it (recomputed bounds then cover it).
  void ObserveTileViolation(size_t bucket, size_t group, double raw_q,
                            const ScoreCache& cache, size_t train_steps,
                            ShortlistPruner* pruner) const;

 private:
  /// Stale record of the tile's representative pair.
  struct TileRecord {
    double q = 0.0;
    double snap_obj = 0.0;
    double snap_ann = 0.0;
    double snap_glob = 0.0;
    uint32_t step = 0;
    uint8_t valid = 0;
  };

  size_t TileIndex(size_t bucket, size_t group) const {
    return bucket * num_groups_ + group;
  }
  /// Rep aging + spatial span, the quantity alpha charges against.
  double TileDriftSpan(const TileRecord& rec, size_t bucket, size_t group,
                       const ScoreCache& cache) const;

  HierarchyOptions options_;
  size_t num_objects_ = 0;
  size_t num_annotators_ = 0;
  size_t num_buckets_ = 0;
  size_t num_groups_ = 0;

  std::vector<TileRecord> records_;       // num_buckets x num_groups.
  std::vector<double> group_width_;       // Annotator-block diameters.
  std::vector<uint32_t> bucket_unlabelled_;
  std::vector<uint32_t> group_affordable_;

  size_t seen_full_rebuilds_ = 0;  // Last seen ScoreCache::rebuild_epoch().
  bool epoch_seen_ = false;
};

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_HIERARCHY_H_
