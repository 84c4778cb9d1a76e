// UCR Suite baseline (Rakthanmanon et al., KDD'12), adapted to ε-match as
// in the paper's evaluation (§VIII-A3): a full scan of X with the UCR
// optimization cascade — streaming mean/std, cNSM constraint push-down,
// reordered early-abandoning normalized ED, LB_Kim / LB_Keogh cascades and
// early-abandoning DTW.
//
// That cascade is exactly KV-match's phase 2 (§V-C), so UCR Suite is the
// Verifier run over every offset [0, n−m]: one implementation of each
// distance, on the same dispatched kernels as KV-match.
#ifndef KVMATCH_BASELINE_UCR_SUITE_H_
#define KVMATCH_BASELINE_UCR_SUITE_H_

#include <span>
#include <vector>

#include "match/query_types.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvmatch {

class UcrSuite {
 public:
  /// `prefix` must be built over `series`.
  UcrSuite(const TimeSeries& series, const PrefixStats& prefix)
      : series_(series), prefix_(prefix) {}

  /// Handles all five query types. `stats` accumulates the verifier's
  /// pruning counters, and candidate_positions grows by n − m + 1 (every
  /// offset is a candidate).
  std::vector<MatchResult> Match(std::span<const double> q,
                                 const QueryParams& params,
                                 MatchStats* stats = nullptr) const;

 private:
  const TimeSeries& series_;
  const PrefixStats& prefix_;
};

}  // namespace kvmatch

#endif  // KVMATCH_BASELINE_UCR_SUITE_H_
