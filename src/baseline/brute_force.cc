#include "baseline/brute_force.h"

#include <cmath>

#include "distance/dtw.h"
#include "distance/ed.h"

namespace kvmatch {

std::vector<MatchResult> BruteForceMatch(const TimeSeries& series,
                                         std::span<const double> q,
                                         const QueryParams& params) {
  std::vector<MatchResult> results;
  const size_t m = q.size();
  const size_t n = series.size();
  if (m == 0 || n < m) return results;
  const bool normalized = IsNormalized(params.type);
  const bool dtw = IsDtw(params.type);

  std::vector<double> q_cmp(q.begin(), q.end());
  if (normalized) q_cmp = ZNormalize(q);
  const MeanStd q_ms = ComputeMeanStd(q);

  for (size_t off = 0; off + m <= n; ++off) {
    const auto s = series.Subsequence(off, m);
    std::vector<double> s_cmp(s.begin(), s.end());
    if (normalized) {
      const MeanStd ms = ComputeMeanStd(s);
      if (ms.std < q_ms.std / params.alpha - 1e-12 ||
          ms.std > q_ms.std * params.alpha + 1e-12) {
        continue;
      }
      if (std::fabs(ms.mean - q_ms.mean) > params.beta + 1e-12) continue;
      s_cmp = ZNormalize(s);
    }
    double d;
    if (IsL1(params.type)) {
      d = L1Distance(s_cmp, q_cmp);
    } else if (dtw) {
      d = DtwDistance(s_cmp, q_cmp, params.rho);
    } else {
      d = EuclideanDistance(s_cmp, q_cmp);
    }
    if (d <= params.epsilon) results.push_back({off, d});
  }
  return results;
}

}  // namespace kvmatch
