// Top-K subsequence search (engineering extension; the paper's engine
// answers threshold queries, while exploratory users often want "the k
// best matches" — UCR Suite's native mode).
//
// Strategy: one pass of the executor with a live best-so-far ε, UCR
// Suite's bound (Rakthanmanon et al., KDD 2012). The search ranks the
// N = k·max(1, 2z − 1) smallest distances, z being the exclusion zone:
// the greedy non-overlap filter is not monotone, but each kept match
// blocks at most 2z − 2 others, so the first N results in (distance,
// offset) order always hold the first k the filter keeps.
//   1. Seed: verify a few windows chosen from the index rows nearest the
//      query's window means (QueryExecutor::StartTopK). Their N-th
//      smallest distance bounds d_N from above; with fewer than N
//      eligible seeds the bound is +∞.
//   2. Phase 1 probes once at that bound. Lemmas 1–4 make the probe exact
//      for any ε >= d_N.
//   3. Phase 2 verifies the remaining candidates in slices. Each slice
//      keeps a TopKHeap of its N best; once a heap is full its top lowers
//      the SharedBound, and every prune and early abandon of every slice
//      reads the bound as its ε.
//   4. SelectTopK merges the heaps: the N smallest under MatchOrderLess,
//      the exclusion filter, the first k. The answer is the same for any
//      slicing, thread timing and kernel tier.
#ifndef KVMATCH_MATCH_TOP_K_H_
#define KVMATCH_MATCH_TOP_K_H_

#include <atomic>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "match/query_types.h"

namespace kvmatch {

/// Canonical result order for a single series: (distance, offset),
/// strictly increasing. Every top-k producer sorts with this comparator,
/// so equal-distance results always come back in the same order — the
/// contract that lets a federated answer be byte-identical to the
/// single-node one.
bool MatchOrderLess(const MatchResult& a, const MatchResult& b);

/// A match tagged with the series it came from — the unit of cross-series
/// (federated) merging, where MatchResult alone is ambiguous.
struct SeriesMatch {
  std::string series;
  MatchResult match;

  bool operator==(const SeriesMatch&) const = default;
};

/// The (distance, series, offset) total order over tagged matches. Two
/// distinct tagged matches never compare equal (a series cannot produce
/// the same offset twice), so any sort under this order is deterministic
/// regardless of the producer's internal heap/slice scheduling.
bool SeriesMatchLess(const SeriesMatch& a, const SeriesMatch& b);

/// Merges per-source top-k result lists (each list internally arbitrary)
/// into the global k smallest under SeriesMatchLess, using a bounded
/// max-heap of size k — the coordinator's cross-shard top-k merge.
std::vector<SeriesMatch> MergeTopK(
    std::vector<std::vector<SeriesMatch>> sources, size_t k);

struct TopKOptions {
  /// Exclude trivial matches: keep at most one result per window of this
  /// many offsets (0 disables). UCR-style non-overlap handling.
  size_t exclusion_zone = 0;
};

/// N = k·max(1, 2z − 1), saturated at `windows` (a series cannot rank
/// more windows than it has, and a wire-supplied k or z must not
/// overflow).
size_t TopKCapacity(size_t k, size_t exclusion_zone, size_t windows);

/// The live ε of one top-k search, shared by its verify slices. It only
/// shrinks (CAS-min), and every value it takes is the N-th smallest
/// distance of some set of N eligible windows, hence >= d_N. A slice that
/// reads a stale value just prunes less.
class SharedBound {
 public:
  double Load() const { return value_.load(std::memory_order_relaxed); }
  void Lower(double bound);

 private:
  std::atomic<double> value_{std::numeric_limits<double>::infinity()};
};

/// One slice's bounded max-heap of its `capacity` best matches under
/// MatchOrderLess. Until it is full it publishes nothing; from then on
/// every change of its top lowers `shared`.
class TopKHeap {
 public:
  TopKHeap(size_t capacity, SharedBound* shared)
      : capacity_(capacity), shared_(shared) {}

  /// ε for the next candidate. A candidate at exactly this distance may
  /// still enter (on a smaller offset), so callers prune only above it.
  double Bound() const { return shared_->Load(); }

  void Offer(const MatchResult& match);

  /// The kept matches, in no particular order.
  std::vector<MatchResult> Take() { return std::move(heap_); }

 private:
  size_t capacity_;
  SharedBound* shared_;
  std::vector<MatchResult> heap_;  // max-heap under MatchOrderLess
};

/// The top-k answer from every candidate a search kept (in any order):
/// the TopKCapacity smallest under MatchOrderLess, then the greedy
/// exclusion filter, then the first k, sorted by distance.
std::vector<MatchResult> SelectTopK(std::vector<MatchResult> candidates,
                                    size_t k, size_t exclusion_zone);

}  // namespace kvmatch

#endif  // KVMATCH_MATCH_TOP_K_H_
