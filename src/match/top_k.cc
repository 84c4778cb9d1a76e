#include "match/top_k.h"

#include <algorithm>
#include <queue>

namespace kvmatch {

bool MatchOrderLess(const MatchResult& a, const MatchResult& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.offset < b.offset;
}

bool SeriesMatchLess(const SeriesMatch& a, const SeriesMatch& b) {
  if (a.match.distance != b.match.distance) {
    return a.match.distance < b.match.distance;
  }
  if (a.series != b.series) return a.series < b.series;
  return a.match.offset < b.match.offset;
}

std::vector<SeriesMatch> MergeTopK(
    std::vector<std::vector<SeriesMatch>> sources, size_t k) {
  if (k == 0) return {};
  // Bounded max-heap: the root is the worst of the best-k-so-far, so each
  // candidate costs O(log k) and memory stays O(k) no matter how many
  // shards contribute.
  const auto worse = [](const SeriesMatch& a, const SeriesMatch& b) {
    return SeriesMatchLess(a, b);  // max-heap under the total order
  };
  std::priority_queue<SeriesMatch, std::vector<SeriesMatch>,
                      decltype(worse)>
      heap(worse);
  for (auto& source : sources) {
    for (auto& sm : source) {
      if (heap.size() < k) {
        heap.push(std::move(sm));
      } else if (SeriesMatchLess(sm, heap.top())) {
        heap.pop();
        heap.push(std::move(sm));
      }
    }
  }
  std::vector<SeriesMatch> merged(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    merged[i] = heap.top();
    heap.pop();
  }
  return merged;
}

size_t TopKCapacity(size_t k, size_t exclusion_zone, size_t windows) {
  // max(1, 2z − 1) without overflow: a zone wider than the series blocks
  // every other window, which a factor of `windows` already covers.
  const size_t zone = std::min(exclusion_zone, windows);
  const size_t factor = zone <= 1 ? 1 : 2 * zone - 1;
  if (k == 0 || windows == 0) return 0;
  if (k > windows / factor) return windows;
  return k * factor;
}

void SharedBound::Lower(double bound) {
  double current = value_.load(std::memory_order_relaxed);
  while (bound < current &&
         !value_.compare_exchange_weak(current, bound,
                                       std::memory_order_relaxed)) {
  }
}

void TopKHeap::Offer(const MatchResult& match) {
  if (heap_.size() < capacity_) {
    heap_.push_back(match);
    std::push_heap(heap_.begin(), heap_.end(), MatchOrderLess);
    // A heap that is not yet full bounds nothing: fewer than N windows
    // say nothing about the N-th smallest distance.
    if (heap_.size() == capacity_) shared_->Lower(heap_.front().distance);
    return;
  }
  if (capacity_ == 0 || !MatchOrderLess(match, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), MatchOrderLess);
  heap_.back() = match;
  std::push_heap(heap_.begin(), heap_.end(), MatchOrderLess);
  shared_->Lower(heap_.front().distance);
}

std::vector<MatchResult> SelectTopK(std::vector<MatchResult> candidates,
                                    size_t k, size_t exclusion_zone) {
  const size_t keep = TopKCapacity(k, exclusion_zone, candidates.size());
  std::sort(candidates.begin(), candidates.end(), MatchOrderLess);
  candidates.resize(keep);
  if (exclusion_zone > 1) {
    // Greedy non-overlap filter: keep a result only if no kept result
    // lies within `exclusion_zone` offsets.
    std::vector<MatchResult> kept;
    for (const auto& r : candidates) {
      bool blocked = false;
      for (const auto& other : kept) {
        const size_t delta = r.offset > other.offset ? r.offset - other.offset
                                                     : other.offset - r.offset;
        if (delta < exclusion_zone) {
          blocked = true;
          break;
        }
      }
      if (!blocked) kept.push_back(r);
      if (kept.size() == k) break;
    }
    candidates = std::move(kept);
  }
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

}  // namespace kvmatch
