// FAST baseline (Li et al., EDBT'17): UCR Suite plus additional lower
// bounds to reduce distance computations (paper §VIII-A3, §IX).
//
// Our reconstruction adds, ahead of the UCR cascade:
//  * a PAA window-mean prefilter (LB_PAA-style) over precomputed sliding
//    window sums — cheap per offset, with the data-preparation overhead the
//    paper observes making FAST slower than UCR for ED;
//  * for DTW, the LB_Kim + LB_Keogh cascade of UCR with an extra
//    data-side envelope bound (LB_Keogh EC: query against the candidate's
//    envelope), the classic "second Keogh pass".
//
// FAST keeps its own scan loop for those extra bounds, but its ED,
// reordered ED, L1 and both LB_Keogh passes run on the dispatched
// simd::Kernels table, the same kernels KV-match and UCR Suite use.
#ifndef KVMATCH_BASELINE_FAST_MATCHER_H_
#define KVMATCH_BASELINE_FAST_MATCHER_H_

#include <span>
#include <vector>

#include "match/query_types.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvmatch {

struct FastStats {
  uint64_t offsets_scanned = 0;
  uint64_t constraint_pruned = 0;
  uint64_t paa_pruned = 0;
  uint64_t lb_kim_pruned = 0;
  uint64_t lb_keogh_pruned = 0;
  uint64_t lb_keogh_ec_pruned = 0;
  uint64_t distance_calls = 0;
  double prepare_ms = 0.0;  // data-preparation overhead per query
};

class FastMatcher {
 public:
  FastMatcher(const TimeSeries& series, const PrefixStats& prefix)
      : series_(series), prefix_(prefix) {}

  std::vector<MatchResult> Match(std::span<const double> q,
                                 const QueryParams& params,
                                 FastStats* stats = nullptr) const;

 private:
  const TimeSeries& series_;
  const PrefixStats& prefix_;
};

}  // namespace kvmatch

#endif  // KVMATCH_BASELINE_FAST_MATCHER_H_
