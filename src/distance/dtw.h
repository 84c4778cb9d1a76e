// Dynamic Time Warping with a Sakoe-Chiba band (paper §II).
//
// DtwDistance is the last step of the verifier's lower-bound cascade
// (LB_Kim, LB_Keogh_EQ, LB_Keogh_EC, then this DP; see match/verifier.h).
// The cascade hands it the suffix sums of whichever LB_Keogh contribution
// array has the larger total; both are admissible tails (see cum_lb).
#ifndef KVMATCH_DISTANCE_DTW_H_
#define KVMATCH_DISTANCE_DTW_H_

#include <cmath>
#include <limits>
#include <span>

#include "common/cancel.h"

namespace kvmatch {

/// The largest double c with sqrt(c) <= threshold (+inf when threshold is
/// not finite, -inf when it is negative). A squared sum compared against it
/// gets the verdict its root gets against threshold; threshold² alone can
/// be an ulp short, and would reject a sum whose root rounds to threshold.
inline double SquaredThreshold(double threshold) {
  const double inf = std::numeric_limits<double>::infinity();
  if (!(threshold < inf)) return inf;
  if (threshold < 0.0) return -inf;
  double c = threshold * threshold;
  for (double up = std::nextafter(c, inf); std::sqrt(up) <= threshold;
       up = std::nextafter(c, inf)) {
    c = up;
  }
  return c;
}

/// `threshold_sq` widened for comparisons against a sum of m lower-bound
/// terms. A lower bound (LB_Kim, LB_Keogh, the cum_lb tail) and the DP add
/// the same rounded squared differences in different orders, so a bound
/// that is tight in exact arithmetic (ρ = 0, say) can round a few ulps
/// above the DP's own sum. With u = 2⁻⁵³ the gap is at most about 4·m·u
/// relative for m bound terms against a path of at most 2m - 1 cells;
/// widening by 8·m·u (4·m·DBL_EPSILON) keeps every prune and every
/// tail-based abandon a verdict the DP would reach itself.
inline double WidenForRounding(double threshold_sq, size_t m) {
  return threshold_sq *
         (1.0 + 4.0 * static_cast<double>(m) *
                    std::numeric_limits<double>::epsilon());
}

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
/// cum_lb[i+ρ+1] to row i's minimum tightens abandoning further. Rows
/// past i + ρ and columns past i + ρ are both out of reach of rows <= i,
/// so the tail may come from LB_Keogh_EQ (candidate points vs the query
/// envelope) or LB_Keogh_EC (query points vs the candidate envelope). The
/// tail-augmented test compares against WidenForRounding(threshold², m);
/// the row minimum alone is compared exactly.
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
