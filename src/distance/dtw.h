// Dynamic Time Warping with a Sakoe-Chiba band (paper §II).
#ifndef KVMATCH_DISTANCE_DTW_H_
#define KVMATCH_DISTANCE_DTW_H_

#include <limits>
#include <span>

#include "common/cancel.h"

namespace kvmatch {

/// DTW distance between equal-length sequences restricted to the
/// Sakoe-Chiba band |i - j| <= rho. With rho = 0 this equals ED.
///
/// Cost: O(m·(2ρ+1)) time — only the band's cells are touched — and O(m)
/// scratch (two DP rows). The result is bit-identical to the textbook
/// formulation that clears a full row per DP row: every cell takes the
/// same minimum of the same neighbours and does the same single addition.
///
/// `threshold` (on the *distance*, not its square) enables early abandoning:
/// if every band cell of some DP row i exceeds threshold², +inf is returned.
/// `cum_lb` optionally supplies the UCR Suite cumulative lower-bound tail
/// array (cum_lb[k] = lower bound contribution of points >= k): adding
/// cum_lb[i+ρ+1] to row i's minimum tightens abandoning further.
///
/// `cancel` (borrowed, may be null) is polled every kDtwCancelRows DP rows:
/// one pathologically long candidate (m ~ 10⁴, wide band → 10⁸ cells) no
/// longer pins a cancelled query until the candidate finishes. On
/// cancellation +inf is returned; the caller is expected to re-check its
/// token and discard the value rather than treat it as "no match".
inline constexpr size_t kDtwCancelRows = 16;
double DtwDistance(std::span<const double> a, std::span<const double> b,
                   size_t rho,
                   double threshold = std::numeric_limits<double>::infinity(),
                   std::span<const double> cum_lb = {},
                   const CancelToken* cancel = nullptr);

/// Unconstrained (full-matrix) DTW — reference implementation for tests.
double DtwDistanceFull(std::span<const double> a, std::span<const double> b);

}  // namespace kvmatch

#endif  // KVMATCH_DISTANCE_DTW_H_
