#include "baseline/ucr_suite.h"

#include "index/interval.h"
#include "match/verifier.h"

namespace kvmatch {

std::vector<MatchResult> UcrSuite::Match(std::span<const double> q,
                                         const QueryParams& params,
                                         MatchStats* stats) const {
  const size_t m = q.size();
  const size_t n = series_.size();
  if (m == 0 || n < m) return {};
  IntervalList all;
  all.AppendInterval({0, static_cast<int64_t>(n - m)});
  if (stats != nullptr) stats->candidate_positions += n - m + 1;
  return Verifier(series_, prefix_).Verify(q, params, all, stats);
}

}  // namespace kvmatch
