// Correctness gate: a served answer must equal the exact answer computed
// in the benchmark process over the same points — brute force for ED and
// L1, UCR Suite for DTW. Offsets must match exactly and distances within
// 1e-6, the rule the unit tests use. A top-k answer is checked against the
// oracle run at its own k-th distance.
#ifndef KVBENCH_ORACLE_H_
#define KVBENCH_ORACLE_H_

#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "baseline/brute_force.h"
#include "baseline/ucr_suite.h"
#include "match/query_types.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvbench {

using kvmatch::MatchResult;
using kvmatch::QueryParams;
using kvmatch::TimeSeries;

constexpr double kDistanceTolerance = 1e-6;

inline std::vector<MatchResult> OracleMatch(const TimeSeries& series,
                                            std::span<const double> q,
                                            const QueryParams& params) {
  if (kvmatch::IsDtw(params.type)) {
    const kvmatch::PrefixStats prefix(series);
    return kvmatch::UcrSuite(series, prefix).Match(q, params);
  }
  return kvmatch::BruteForceMatch(series, q, params);
}

/// Empty when `got` is the exact answer; otherwise what differs.
inline std::string CheckThreshold(const TimeSeries& series,
                                  std::span<const double> q,
                                  const QueryParams& params,
                                  const std::vector<MatchResult>& got) {
  const auto want = OracleMatch(series, q, params);
  if (want.size() != got.size()) {
    return "got " + std::to_string(got.size()) + " matches, oracle " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].offset != got[i].offset ||
        std::fabs(want[i].distance - got[i].distance) > kDistanceTolerance) {
      return "match " + std::to_string(i) + " differs: offset " +
             std::to_string(got[i].offset) + " vs " +
             std::to_string(want[i].offset);
    }
  }
  return "";
}

/// `got` holds the best k in distance order. Every returned match must be
/// in the oracle's answer at ε = the k-th distance with the same distance,
/// and every oracle match strictly closer than the k-th must be returned.
inline std::string CheckTopK(const TimeSeries& series,
                             std::span<const double> q, QueryParams params,
                             size_t k, const std::vector<MatchResult>& got) {
  if (got.empty() || got.size() > k) {
    return "top-k returned " + std::to_string(got.size()) + " matches";
  }
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i].distance < got[i - 1].distance) return "top-k not sorted";
  }
  const double kth = got.back().distance;
  params.epsilon = kth + kDistanceTolerance;
  const auto want = OracleMatch(series, q, params);
  std::map<size_t, double> oracle;
  for (const auto& m : want) oracle[m.offset] = m.distance;
  for (const auto& m : got) {
    auto it = oracle.find(m.offset);
    if (it == oracle.end() ||
        std::fabs(it->second - m.distance) > kDistanceTolerance) {
      return "top-k offset " + std::to_string(m.offset) +
             " is not an oracle match";
    }
  }
  size_t closer = 0;
  for (const auto& m : want) {
    if (m.distance < kth - kDistanceTolerance) ++closer;
  }
  size_t got_closer = 0;
  for (const auto& m : got) {
    if (m.distance < kth - kDistanceTolerance) ++got_closer;
  }
  if (closer != got_closer) return "top-k misses a closer oracle match";
  if (got.size() < k && want.size() > got.size()) {
    return "top-k returned fewer than k of the oracle's matches";
  }
  return "";
}

}  // namespace kvbench

#endif  // KVBENCH_ORACLE_H_
