#include "bench_util/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "distance/dtw.h"
#include "index/interval.h"
#include "match/top_k.h"
#include "match/verifier.h"

namespace kvmatch {

namespace {

/// The k-th smallest distance over every offset (the largest when fewer
/// than k windows are eligible), with the live bound starting at `bound`.
double KthDistance(const TimeSeries& series, const PrefixStats& prefix,
                   std::span<const double> q, QueryParams params, size_t k,
                   double bound) {
  IntervalList all;
  all.AppendInterval({0, static_cast<int64_t>(series.size() - q.size())});
  SharedBound shared;
  shared.Lower(bound);
  TopKHeap heap(k, &shared);
  params.epsilon = bound;
  // The default context never cancels, so the pass always completes.
  (void)Verifier(series, prefix)
      .VerifyCancellable(q, params, all, ExecContext{}, nullptr, nullptr, {},
                         &heap);
  double kth = 0.0;
  for (const MatchResult& match : heap.Take()) {
    kth = std::max(kth, match.distance);
  }
  return kth;
}

}  // namespace

size_t TargetMatches(size_t n, size_t m, double fraction) {
  if (n < m) return 0;
  const size_t windows = n - m + 1;
  const double k = std::round(fraction * static_cast<double>(windows));
  return std::min(windows, static_cast<size_t>(std::max(1.0, k)));
}

double EpsilonForSelectivity(const TimeSeries& series,
                             const PrefixStats& prefix,
                             std::span<const double> q, QueryParams params,
                             double fraction) {
  const size_t m = q.size();
  if (m == 0 || series.size() < m) return 0.0;
  const size_t k = TargetMatches(series.size(), m, fraction);
  double bound = std::numeric_limits<double>::infinity();
  if (IsDtw(params.type)) {
    QueryParams ed = params;
    ed.type = params.type == QueryType::kRsmDtw ? QueryType::kRsmEd
                                                : QueryType::kCnsmEd;
    ed.rho = 0;
    const double ed_eps = KthDistance(series, prefix, q, ed, k, bound);
    // The DP and the ED kernel add the same squared terms in different
    // orders, so a window whose best path is the diagonal can round a few
    // ulps above its ED; widen as the verifier's lower bounds do.
    bound = std::sqrt(WidenForRounding(ed_eps * ed_eps, m));
  }
  return KthDistance(series, prefix, q, params, k, bound);
}

}  // namespace kvmatch
