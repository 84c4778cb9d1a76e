// Brute-force reference matcher: exact answers for all five query types
// with no pruning. The ground truth every other matcher is tested against.
//
// It deliberately uses the plain sequential formulas in distance/ed.h and
// distance/dtw.h rather than the simd::Kernels table, so that comparing a
// matcher against it checks the kernels too, not the kernels against
// themselves.
#ifndef KVMATCH_BASELINE_BRUTE_FORCE_H_
#define KVMATCH_BASELINE_BRUTE_FORCE_H_

#include <span>
#include <vector>

#include "match/query_types.h"
#include "ts/time_series.h"

namespace kvmatch {

/// Scans every offset, computing the exact (normalized) ED/DTW distance and
/// checking the cNSM constraints directly from the definitions.
std::vector<MatchResult> BruteForceMatch(const TimeSeries& series,
                                         std::span<const double> q,
                                         const QueryParams& params);

}  // namespace kvmatch

#endif  // KVMATCH_BASELINE_BRUTE_FORCE_H_
