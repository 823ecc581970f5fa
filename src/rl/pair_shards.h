#ifndef CROWDRL_RL_PAIR_SHARDS_H_
#define CROWDRL_RL_PAIR_SHARDS_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "io/serializer.h"
#include "util/logging.h"
#include "util/status.h"

namespace crowdrl::rl {

/// Objects per shard for pair-indexed agent state (the UCB selection
/// counts). One shard of a 1k-annotator campaign covers ~1M pairs; at
/// million-object scale only the ranges selection actually touches ever
/// materialize.
inline constexpr size_t kPairShardObjects = 1024;

/// \brief Lazily allocated object-range shards over the |O| x |W| pair
/// grid.
///
/// Flat pair-indexed vectors are O(objects x annotators) the moment an
/// episode begins — 4GB+ per table at 1M x 1k. This map slices the object
/// axis into fixed ranges and allocates a `Shard` (any type constructible
/// from its pair count) only when a pair in the range is first written, so
/// memory tracks the touched ranges. Reads of untouched ranges see a null
/// shard and fall back to the caller's default (a zero count).
template <typename Shard>
class PairShardMap {
 public:
  void Reset(size_t num_objects, size_t num_annotators,
             size_t shard_objects = kPairShardObjects) {
    CROWDRL_CHECK(num_objects > 0 && num_annotators > 0 &&
                  shard_objects > 0);
    num_objects_ = num_objects;
    num_annotators_ = num_annotators;
    shard_objects_ = shard_objects;
    shards_.clear();
    shards_.resize((num_objects + shard_objects - 1) / shard_objects);
  }

  size_t num_objects() const { return num_objects_; }
  size_t num_annotators() const { return num_annotators_; }
  size_t shard_objects() const { return shard_objects_; }
  size_t num_shards() const { return shards_.size(); }

  std::pair<size_t, size_t> ShardRange(size_t shard) const {
    CROWDRL_CHECK(shard < shards_.size());
    const size_t begin = shard * shard_objects_;
    return {begin, std::min(begin + shard_objects_, num_objects_)};
  }

  /// Pair offset inside the shard owning `object`.
  size_t OffsetOf(size_t object, size_t annotator) const {
    return (object % shard_objects_) * num_annotators_ + annotator;
  }

  const Shard* Get(size_t object) const {
    CROWDRL_DCHECK(object < num_objects_);
    return shards_[object / shard_objects_].get();
  }

  Shard* GetOrCreate(size_t object) {
    CROWDRL_DCHECK(object < num_objects_);
    std::unique_ptr<Shard>& shard = shards_[object / shard_objects_];
    if (shard == nullptr) {
      const auto [begin, end] = ShardRange(object / shard_objects_);
      shard = std::make_unique<Shard>((end - begin) * num_annotators_);
    }
    return shard.get();
  }

  Shard* GetOrCreateShard(size_t shard) {
    CROWDRL_CHECK(shard < shards_.size());
    return GetOrCreate(shard * shard_objects_);
  }

  size_t allocated_shards() const {
    size_t n = 0;
    for (const auto& shard : shards_) n += shard != nullptr ? 1 : 0;
    return n;
  }

  /// Visits allocated shards in index order (deterministic).
  template <typename Fn>
  void ForEachAllocated(Fn&& fn) const {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s] != nullptr) fn(s, *shards_[s]);
    }
  }

 private:
  size_t num_objects_ = 0;
  size_t num_annotators_ = 0;
  size_t shard_objects_ = kPairShardObjects;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// \brief Sharded per-pair selection counts (the UCB visitation counter).
///
/// Reads of never-selected ranges cost a null check; writes materialize
/// the range's shard. Serialization walks allocated shards in index order,
/// so saved bytes are a pure function of the counts — a restored counter
/// re-saves byte-identically.
class PairCounts {
 public:
  struct Shard {
    explicit Shard(size_t pairs) : counts(pairs, 0) {}
    std::vector<int> counts;
  };

  void Reset(size_t num_objects, size_t num_annotators,
             size_t shard_objects = kPairShardObjects) {
    map_.Reset(num_objects, num_annotators, shard_objects);
  }

  int Get(int object, int annotator) const {
    const Shard* shard = map_.Get(static_cast<size_t>(object));
    return shard == nullptr
               ? 0
               : shard->counts[map_.OffsetOf(static_cast<size_t>(object),
                                             static_cast<size_t>(annotator))];
  }

  void Increment(int object, int annotator) {
    Shard* shard = map_.GetOrCreate(static_cast<size_t>(object));
    ++shard->counts[map_.OffsetOf(static_cast<size_t>(object),
                                  static_cast<size_t>(annotator))];
  }

  size_t num_objects() const { return map_.num_objects(); }
  size_t num_annotators() const { return map_.num_annotators(); }
  size_t allocated_shards() const { return map_.allocated_shards(); }

  void SaveState(io::Writer* writer) const {
    CROWDRL_CHECK(writer != nullptr);
    writer->WriteSize(map_.shard_objects());
    writer->WriteSize(map_.allocated_shards());
    map_.ForEachAllocated([&](size_t shard, const Shard& data) {
      writer->WriteSize(shard);
      writer->WriteIntVector(data.counts);
    });
  }

  /// Restores into the given shape (the caller read it from its own
  /// checkpoint fields). Rejects malformed shard indices / sizes with
  /// DataLoss.
  Status LoadState(io::Reader* reader, size_t num_objects,
                   size_t num_annotators) {
    CROWDRL_CHECK(reader != nullptr);
    size_t shard_objects = 0;
    CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&shard_objects));
    if (shard_objects == 0) {
      return Status::DataLoss("pair-count shard stride is zero");
    }
    PairShardMap<Shard> map;
    map.Reset(num_objects, num_annotators, shard_objects);
    size_t allocated = 0;
    CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&allocated));
    if (allocated > map.num_shards()) {
      return Status::DataLoss("pair-count shard count exceeds geometry");
    }
    size_t prev = 0;
    bool first = true;
    for (size_t i = 0; i < allocated; ++i) {
      size_t shard = 0;
      CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&shard));
      if (shard >= map.num_shards() || (!first && shard <= prev)) {
        return Status::DataLoss("pair-count shard index out of order");
      }
      prev = shard;
      first = false;
      Shard* data = map.GetOrCreateShard(shard);
      std::vector<int> counts;
      CROWDRL_RETURN_IF_ERROR(reader->ReadIntVector(&counts));
      if (counts.size() != data->counts.size()) {
        return Status::DataLoss("pair-count shard size mismatch");
      }
      data->counts = std::move(counts);
    }
    map_ = std::move(map);
    return Status::Ok();
  }

 private:
  PairShardMap<Shard> map_;
};

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_PAIR_SHARDS_H_
