// Quickstart: build a KV-index over a series, run all four query types,
// and print the matches. Mirrors the README's 60-second tour. Exits 1
// unless the last query's answer equals brute force's.
//
//   ./quickstart [seed]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "baseline/brute_force.h"
#include "common/rng.h"
#include "index/index_builder.h"
#include "match/kv_match.h"
#include "ts/generator.h"

using namespace kvmatch;

namespace {

const char* TypeName(QueryType t) {
  switch (t) {
    case QueryType::kRsmEd: return "RSM-ED  ";
    case QueryType::kRsmDtw: return "RSM-DTW ";
    case QueryType::kCnsmEd: return "cNSM-ED ";
    case QueryType::kCnsmDtw: return "cNSM-DTW";
    case QueryType::kRsmL1: return "RSM-L1  ";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // 1. Data: 100k points of heterogeneous synthetic time series.
  Rng rng(seed);
  const TimeSeries x = GenerateSynthetic(100'000, &rng);
  const PrefixStats prefix(x);
  std::printf("series: %zu points\n", x.size());

  // 2. One KV-index (w = 50) serves all four query types.
  const KvIndex index = BuildKvIndex(x, {.window = 50});
  std::printf("index:  %zu rows, ~%llu bytes\n\n", index.num_rows(),
              static_cast<unsigned long long>(index.EncodedSizeBytes()));

  // 3. Query: a subsequence of the data with light noise.
  const auto q = ExtractQuery(x, 31'415, 400, 0.1, &rng);
  const KvMatcher matcher(x, prefix, index);

  const QueryParams queries[] = {
      {QueryType::kRsmEd, 8.0, 1.0, 0.0, 0},
      {QueryType::kRsmDtw, 6.0, 1.0, 0.0, 20},
      {QueryType::kCnsmEd, 4.0, 1.5, 2.0, 0},
      {QueryType::kCnsmDtw, 3.0, 1.5, 2.0, 20},
  };
  std::vector<MatchResult> last;
  for (const QueryParams& params : queries) {
    MatchStats stats;
    auto results = matcher.Match(q, params, &stats);
    if (!results.ok()) {
      std::fprintf(stderr, "match failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%s eps=%.1f  matches=%zu  candidates=%llu (of %zu offsets)  "
        "probe=%llu scans  t=%.2f+%.2f ms\n",
        TypeName(params.type), params.epsilon, results->size(),
        static_cast<unsigned long long>(stats.candidate_positions),
        x.size() - q.size() + 1,
        static_cast<unsigned long long>(stats.probe.index_accesses),
        stats.phase1_ms, stats.phase2_ms);
    size_t shown = 0;
    for (const auto& m : *results) {
      std::printf("    offset=%-8zu dist=%.3f\n", m.offset, m.distance);
      if (++shown == 3) break;
    }
    last = std::move(results).value();
  }

  // 4. Sanity: agree with the brute-force reference on the last query:
  //    the same offsets, and distances within 1e-9.
  const auto truth = BruteForceMatch(x, q, queries[3]);
  bool same = truth.size() == last.size();
  for (size_t i = 0; same && i < truth.size(); ++i) {
    same = truth[i].offset == last[i].offset &&
           std::fabs(truth[i].distance - last[i].distance) <= 1e-9;
  }
  std::printf("\nbrute-force check: %zu matches, %s cNSM-DTW's\n",
              truth.size(), same ? "the same as" : "DIFFERENT from");
  return same ? 0 : 1;
}
