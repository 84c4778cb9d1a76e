#include "distance/dtw.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace kvmatch {

double DtwDistance(std::span<const double> a, std::span<const double> b,
                   size_t rho, double threshold,
                   std::span<const double> cum_lb, const CancelToken* cancel) {
  const size_t m = a.size();
  if (m == 0) return 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double thr_sq = SquaredThreshold(threshold);
  const double thr_tail_sq = WidenForRounding(thr_sq, m);

  // Two DP rows of squared costs with a sentinel column: row[j + 1] is
  // cell j and row[0] is column -1. Only the band is ever written; since
  // j_hi never decreases, cells right of the band stay +inf, and each row
  // resets just its left boundary cell. prev starts as row -1 with
  // prev[0] = 0, so cell (0, 0) costs d(0, 0).
  std::vector<double> rows(2 * (m + 1), inf);
  double* prev = rows.data();
  double* curr = rows.data() + (m + 1);
  prev[0] = 0.0;
  for (size_t i = 0; i < m; ++i) {
    if (cancel != nullptr && i % kDtwCancelRows == 0 && cancel->cancelled()) {
      return inf;
    }
    const size_t j_lo = i > rho ? i - rho : 0;
    const size_t j_hi = std::min(m - 1, i + rho);
    curr[j_lo] = inf;
    double row_min = inf;
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const double d = a[i] - b[j];
      // Folding into +inf drops NaN operands, so the minimum is the same
      // whatever the order; the b-suffix cell, the one carried from the
      // previous iteration, goes last to keep it off the latency chain.
      const double best =
          std::min(std::min(std::min(inf, prev[j + 1]), prev[j]), curr[j]);
      curr[j + 1] = best + d * d;
      row_min = std::min(row_min, curr[j + 1]);
    }
    // Early abandoning: the final cost can only grow along any path (FP
    // addition of non-negative terms never decreases a sum), so the row
    // minimum is compared exactly; the cumulative lower bound of the
    // remaining tail, when available, tightens it up to rounding.
    if (thr_sq < inf) {
      if (row_min > thr_sq) return inf;
      if (!cum_lb.empty()) {
        const size_t next = std::min(m, i + rho + 1);
        if (next < cum_lb.size() && row_min + cum_lb[next] > thr_tail_sq) {
          return inf;
        }
      }
    }
    std::swap(prev, curr);
  }
  // Uniform early-abandon contract: any result above the threshold is
  // reported as +inf, whether detected mid-band or at the end.
  if (prev[m] > thr_sq) return inf;
  return std::sqrt(prev[m]);
}

double DtwDistanceFull(std::span<const double> a, std::span<const double> b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return std::numeric_limits<double>::infinity();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> prev(m + 1, inf), curr(m + 1, inf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = inf;
    for (size_t j = 1; j <= m; ++j) {
      const double d = a[i - 1] - b[j - 1];
      curr[j] = d * d +
                std::min({prev[j], curr[j - 1], prev[j - 1]});
    }
    std::swap(prev, curr);
  }
  return std::sqrt(prev[m]);
}

}  // namespace kvmatch
