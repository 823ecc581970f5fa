#ifndef CROWDRL_UTIL_TOPK_H_
#define CROWDRL_UTIL_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace crowdrl {

/// \brief Streaming top-k selector backed by a min-heap.
///
/// Keeps the k items with the largest scores seen so far; the paper's
/// "MinHeap algorithm" for picking the object whose top-k Q-values have the
/// largest sum (Section IV-B, Discussion) is built on this.
template <typename T>
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { CROWDRL_CHECK(k > 0); }

  /// Offers one candidate; kept iff it beats the current k-th best.
  void Push(double score, T item) {
    if (heap_.size() < k_) {
      heap_.emplace_back(score, std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), GreaterScore);
      return;
    }
    if (score <= heap_.front().first) return;
    std::pop_heap(heap_.begin(), heap_.end(), GreaterScore);
    heap_.back() = {score, std::move(item)};
    std::push_heap(heap_.begin(), heap_.end(), GreaterScore);
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Sum of the retained scores (the paper's per-object top-k Q-sum).
  double ScoreSum() const {
    double sum = 0.0;
    for (const auto& entry : heap_) sum += entry.first;
    return sum;
  }

  /// Smallest retained score; only meaningful when size() == k.
  double MinScore() const {
    CROWDRL_DCHECK(!heap_.empty());
    return heap_.front().first;
  }

  /// Destructively extracts the retained items, best score first.
  std::vector<std::pair<double, T>> TakeSortedDescending() {
    std::vector<std::pair<double, T>> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), GreaterScore);
    return out;
  }

  static bool GreaterScore(const std::pair<double, T>& a,
                           const std::pair<double, T>& b) {
    return a.first > b.first;
  }

 private:
  size_t k_;
  std::vector<std::pair<double, T>> heap_;
};

/// \brief Many independent top-k selections in one flat buffer: slot s
/// owns entries [s * k, s * k + size(s)).
///
/// Push applies TopK's rule and heap order to one slot, so a slot's
/// ScoreSum and sorted extraction equal those of a TopK fed the same
/// sequence, bit for bit. Slots share no state: different slots may be
/// pushed from different threads. Reset keeps the buffer's capacity, so a
/// reused selector allocates nothing once warm.
template <typename T>
class SlotTopK {
 public:
  /// Rebinds to `slots` empty selections of size k.
  void Reset(size_t slots, size_t k) {
    CROWDRL_CHECK(k > 0);
    k_ = k;
    entries_.resize(slots * k);
    sizes_.assign(slots, 0);
  }

  void Push(size_t slot, double score, T item) {
    std::pair<double, T>* heap = &entries_[slot * k_];
    size_t& size = sizes_[slot];
    if (size < k_) {
      heap[size++] = {score, std::move(item)};
      std::push_heap(heap, heap + size, TopK<T>::GreaterScore);
      return;
    }
    if (score <= heap[0].first) return;
    std::pop_heap(heap, heap + k_, TopK<T>::GreaterScore);
    heap[k_ - 1] = {score, std::move(item)};
    std::push_heap(heap, heap + k_, TopK<T>::GreaterScore);
  }

  size_t size(size_t slot) const { return sizes_[slot]; }

  /// Sum of the slot's retained scores, in TopK::ScoreSum's order.
  double ScoreSum(size_t slot) const {
    const std::pair<double, T>* heap = &entries_[slot * k_];
    double sum = 0.0;
    for (size_t e = 0; e < sizes_[slot]; ++e) sum += heap[e].first;
    return sum;
  }

  /// The slot's retained items, best score first (TopK's order); `out` is
  /// overwritten and its capacity reused.
  void SortedDescendingInto(size_t slot,
                            std::vector<std::pair<double, T>>* out) const {
    CROWDRL_DCHECK(out != nullptr);
    const std::pair<double, T>* heap = &entries_[slot * k_];
    out->assign(heap, heap + sizes_[slot]);
    std::sort(out->begin(), out->end(), TopK<T>::GreaterScore);
  }

 private:
  size_t k_ = 1;
  std::vector<std::pair<double, T>> entries_;
  std::vector<size_t> sizes_;
};

}  // namespace crowdrl

#endif  // CROWDRL_UTIL_TOPK_H_
