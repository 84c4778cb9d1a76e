// Plain reference distances (paper §II) and the UCR Suite visit order.
//
// These are the straightforward sequential formulas that BruteForceMatch
// and the tests use as an independent reference. Every hot path (the
// verifier, UCR Suite, FAST) runs the early-abandoning kernels in
// distance/simd/kernels.h instead.
#ifndef KVMATCH_DISTANCE_ED_H_
#define KVMATCH_DISTANCE_ED_H_

#include <span>
#include <vector>

namespace kvmatch {

/// Plain Euclidean distance between equal-length sequences.
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// Plain Manhattan (L1) distance between equal-length sequences; the
/// RSM-L1 query type's measure.
double L1Distance(std::span<const double> a, std::span<const double> b);

/// Index order of a query sorted by decreasing |q̂_i| — the UCR Suite
/// heuristic that abandons fastest.
std::vector<int> SortedAbsOrder(std::span<const double> normalized_q);

}  // namespace kvmatch

#endif  // KVMATCH_DISTANCE_ED_H_
