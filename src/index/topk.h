#ifndef DIAL_INDEX_TOPK_H_
#define DIAL_INDEX_TOPK_H_

#include <limits>
#include <algorithm>
#include <vector>

#include "index/vector_index.h"

/// \file
/// Bounded max-heap keeping the k smallest-distance neighbours seen so far
/// (the "k-selection" primitive FAISS optimizes; exact here).

namespace dial::index {

class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  /// Offers a candidate; keeps it only if among the k closest so far.
  void Push(int id, float distance) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back({id, distance});
      std::push_heap(heap_.begin(), heap_.end(), ByDistance);
      return;
    }
    if (distance >= heap_.front().distance) return;
    std::pop_heap(heap_.begin(), heap_.end(), ByDistance);
    heap_.back() = {id, distance};
    std::push_heap(heap_.begin(), heap_.end(), ByDistance);
  }

  /// Current worst kept distance (+inf while not full). A k = 0 heap keeps
  /// nothing, so its threshold is -inf.
  float Threshold() const {
    if (heap_.size() < k_) return std::numeric_limits<float>::infinity();
    if (k_ == 0) return -std::numeric_limits<float>::infinity();
    return heap_.front().distance;
  }

  /// True once the heap holds k neighbours; from then on Push rejects every
  /// distance >= Threshold().
  bool full() const { return heap_.size() >= k_; }

  /// Pre-sizes the heap for a scan over at most `candidates` rows, so no
  /// Push reallocates.
  void Reserve(size_t candidates) { heap_.reserve(std::min(k_, candidates)); }

  /// Extracts results sorted by ascending distance; the heap is consumed
  /// (its capacity leaves with the return value — prefer Reset()+Sorted()
  /// in reused scan loops).
  std::vector<Neighbor> Take() {
    std::sort(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

  /// Re-arms the heap for a new query, keeping the allocated capacity — the
  /// per-query scratch-reuse contract of the pq/ivfpq scan loops.
  void Reset(size_t k) {
    k_ = k;
    heap_.clear();
  }

  /// Sorts the kept neighbours ascending in place and returns a view; the
  /// heap invariant is gone afterwards, so Reset() before the next Push.
  const std::vector<Neighbor>& Sorted() {
    std::sort(heap_.begin(), heap_.end());
    return heap_;
  }

  size_t size() const { return heap_.size(); }

 private:
  static bool ByDistance(const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;  // max-heap on distance
  }

  size_t k_;
  std::vector<Neighbor> heap_;
};

template <typename RowOf>
void VectorIndex::PushRows(TopK& heap, const float* dist, size_t n,
                           RowOf row_of) const {
  size_t j = 0;
  for (; j < n && !heap.full(); ++j) {
    if (RowLive(row_of(j))) heap.Push(IdOf(row_of(j)), dist[j]);
  }
  // The bound moves only when a Push succeeds.
  float bound = heap.Threshold();
  for (; j < n; ++j) {
    if (dist[j] >= bound || !RowLive(row_of(j))) continue;
    heap.Push(IdOf(row_of(j)), dist[j]);
    bound = heap.Threshold();
  }
}

}  // namespace dial::index

#endif  // DIAL_INDEX_TOPK_H_
