// Selectivity calibration (paper §VIII): the evaluation fixes a target
// selectivity (matches / possible offsets, e.g. 10⁻⁷) and sets ε so that a
// query reaches it. Here ε is exact: the k-th smallest distance over every
// offset of the series, found in one UCR Suite pass with a best-so-far
// bound (Rakthanmanon et al., KDD 2012).
#ifndef KVMATCH_BENCH_UTIL_CALIBRATION_H_
#define KVMATCH_BENCH_UTIL_CALIBRATION_H_

#include <span>

#include "match/query_types.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvmatch {

/// k = max(1, round(fraction · (n − m + 1))): the match count a selectivity
/// asks for on a length-n series and a length-m query.
size_t TargetMatches(size_t n, size_t m, double fraction);

/// The ε at which `q` matches exactly k = TargetMatches(n, |q|, fraction)
/// windows of `series`, and more only when windows tie at the k-th
/// distance: that k-th smallest distance over every offset in [0, n − m].
/// When fewer than k windows are eligible (cNSM constraints), it is the
/// largest eligible distance, and 0 when none is. `params.epsilon` is
/// ignored.
///
/// One Verifier pass over every offset keeps a TopKHeap of capacity k with
/// no exclusion zone; once the heap is full its top prunes the rest. A DTW
/// type starts that bound at the matching ED type's answer for the same k:
/// DTW_ρ <= ED window by window, so at least k windows lie within it.
double EpsilonForSelectivity(const TimeSeries& series,
                             const PrefixStats& prefix,
                             std::span<const double> q, QueryParams params,
                             double fraction);

}  // namespace kvmatch

#endif  // KVMATCH_BENCH_UTIL_CALIBRATION_H_
