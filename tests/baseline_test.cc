// Baseline correctness: UCR Suite, FAST, R-tree, FRM / Dual-Match
// (General Match), DMatch — each against brute force / naive references.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/brute_force.h"
#include "baseline/dmatch.h"
#include "baseline/fast_matcher.h"
#include "baseline/general_match.h"
#include "baseline/rtree.h"
#include "baseline/transforms.h"
#include "baseline/ucr_suite.h"
#include "common/rng.h"
#include "distance/ed.h"
#include "index/index_builder.h"
#include "match/kv_match.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

struct ScanCase {
  QueryType type;
  double epsilon;
  double alpha;
  double beta;
  size_t rho;
  const char* name;
};

const ScanCase kAllTypes[] = {
    {QueryType::kRsmEd, 5.0, 1.0, 0.0, 0, "rsm_ed"},
    {QueryType::kRsmDtw, 4.0, 1.0, 0.0, 6, "rsm_dtw"},
    {QueryType::kCnsmEd, 4.0, 1.5, 3.0, 0, "cnsm_ed"},
    {QueryType::kCnsmDtw, 4.0, 1.5, 3.0, 6, "cnsm_dtw"},
    {QueryType::kRsmL1, 40.0, 1.0, 0.0, 0, "rsm_l1"},
};

class UcrAgainstBruteForce : public ::testing::TestWithParam<ScanCase> {};

TEST_P(UcrAgainstBruteForce, ExactAgreement) {
  const ScanCase sc = GetParam();
  Rng rng(71);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  PrefixStats ps(x);
  const UcrSuite ucr(x, ps);
  for (int trial = 0; trial < 3; ++trial) {
    const auto q = ExtractQuery(
        x,
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                  x.size() - 128))),
        128, 0.2, &rng);
    QueryParams params{sc.type, sc.epsilon, sc.alpha, sc.beta, sc.rho};
    const auto expected = BruteForceMatch(x, q, params);
    MatchStats stats;
    const auto got = ucr.Match(q, params, &stats);
    ASSERT_EQ(got.size(), expected.size()) << sc.name;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, expected[i].offset) << sc.name;
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-6) << sc.name;
    }
    // Every offset is a candidate, and each one ends in exactly one of:
    // a cNSM constraint prune, a lower-bound prune, or a distance call.
    const uint64_t offsets = x.size() - 128 + 1;
    EXPECT_EQ(stats.candidate_positions, offsets);
    EXPECT_EQ(stats.constraint_pruned + stats.lb_pruned + stats.distance_calls,
              offsets);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, UcrAgainstBruteForce,
    ::testing::ValuesIn(kAllTypes),
    [](const auto& info) { return info.param.name; });

// UCR Suite is the verifier over every offset, and KV-match's phase 2 is
// the same verifier over its candidate set. On the same series and
// PrefixStats both must return the same offsets with the same distance
// doubles, bit for bit — also at ε equal to a returned distance, where the
// accept test d ≤ ε is decided by the last bits of the sum.
class UcrMatchesServedPath : public ::testing::TestWithParam<ScanCase> {};

void ExpectBitIdentical(const std::vector<MatchResult>& ucr,
                        const std::vector<MatchResult>& served,
                        const char* name) {
  ASSERT_EQ(ucr.size(), served.size()) << name;
  for (size_t i = 0; i < ucr.size(); ++i) {
    EXPECT_EQ(ucr[i].offset, served[i].offset) << name << " i=" << i;
    EXPECT_EQ(ucr[i].distance, served[i].distance) << name << " i=" << i;
  }
}

TEST_P(UcrMatchesServedPath, BitIdenticalToKvMatcher) {
  const ScanCase sc = GetParam();
  Rng rng(81);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  const PrefixStats ps(x);
  const KvIndex index = BuildKvIndex(x, {.window = 32});
  const KvMatcher matcher(x, ps, index);
  const UcrSuite ucr(x, ps);
  for (int trial = 0; trial < 3; ++trial) {
    const auto q = ExtractQuery(
        x,
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                  x.size() - 128))),
        128, 0.2, &rng);
    QueryParams params{sc.type, sc.epsilon, sc.alpha, sc.beta, sc.rho};
    auto served = matcher.Match(q, params);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_FALSE(served->empty()) << sc.name;
    ExpectBitIdentical(ucr.Match(q, params), *served, sc.name);

    params.epsilon = (*served)[served->size() / 2].distance;
    served = matcher.Match(q, params);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitIdentical(ucr.Match(q, params), *served, sc.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, UcrMatchesServedPath,
    ::testing::ValuesIn(kAllTypes),
    [](const auto& info) { return info.param.name; });

class FastAgainstBruteForce : public ::testing::TestWithParam<ScanCase> {};

TEST_P(FastAgainstBruteForce, ExactAgreement) {
  const ScanCase sc = GetParam();
  Rng rng(72);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  PrefixStats ps(x);
  const FastMatcher fast(x, ps);
  const auto q = ExtractQuery(x, 700, 128, 0.2, &rng);
  QueryParams params{sc.type, sc.epsilon, sc.alpha, sc.beta, sc.rho};
  const auto expected = BruteForceMatch(x, q, params);
  FastStats stats;
  const auto got = fast.Match(q, params, &stats);
  ASSERT_EQ(got.size(), expected.size()) << sc.name;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, expected[i].offset) << sc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, FastAgainstBruteForce,
    ::testing::ValuesIn(kAllTypes),
    [](const auto& info) { return info.param.name; });

// ---- R-tree ----

TEST(RectTest, IntersectionAndContainment) {
  Rect a{{0, 0}, {2, 2}};
  Rect b{{1, 1}, {3, 3}};
  Rect c{{5, 5}, {6, 6}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.ContainsPoint({1.0, 1.0}));
  EXPECT_FALSE(a.ContainsPoint({3.0, 1.0}));
}

TEST(RectTest, EnlargeAndVolume) {
  Rect a{{0, 0}, {1, 1}};
  EXPECT_DOUBLE_EQ(a.Volume(), 1.0);
  a.Enlarge(Rect{{2, 0}, {3, 2}});
  EXPECT_EQ(a.lo, (std::vector<double>{0, 0}));
  EXPECT_EQ(a.hi, (std::vector<double>{3, 2}));
  EXPECT_DOUBLE_EQ(a.Volume(), 6.0);
}

std::set<int64_t> NaiveRange(
    const std::vector<std::pair<Rect, int64_t>>& items, const Rect& query) {
  std::set<int64_t> out;
  for (const auto& [rect, id] : items) {
    if (rect.Intersects(query)) out.insert(id);
  }
  return out;
}

class RTreeBuildMode : public ::testing::TestWithParam<bool> {};

TEST_P(RTreeBuildMode, RangeQueryMatchesNaive) {
  const bool bulk = GetParam();
  Rng rng(73);
  const size_t dims = 3;
  std::vector<std::pair<Rect, int64_t>> items;
  for (int64_t i = 0; i < 2000; ++i) {
    std::vector<double> p(dims);
    for (auto& v : p) v = rng.Uniform(-10, 10);
    items.emplace_back(Rect::Point(p), i);
  }
  RTree tree(dims, 8);
  if (bulk) {
    tree.BulkLoad(items);
  } else {
    for (const auto& [rect, id] : items) tree.Insert(rect, id);
  }
  EXPECT_EQ(tree.size(), 2000u);

  for (int t = 0; t < 30; ++t) {
    Rect query;
    query.lo.resize(dims);
    query.hi.resize(dims);
    for (size_t d = 0; d < dims; ++d) {
      const double c = rng.Uniform(-10, 10);
      const double half = rng.Uniform(0.1, 4.0);
      query.lo[d] = c - half;
      query.hi[d] = c + half;
    }
    std::vector<int64_t> got;
    const uint64_t visited = tree.RangeQuery(query, &got);
    EXPECT_GT(visited, 0u);
    EXPECT_EQ(std::set<int64_t>(got.begin(), got.end()),
              NaiveRange(items, query));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RTreeBuildMode, ::testing::Bool());

TEST(RTreeTest, EmptyTreeAnswersEmpty) {
  RTree tree(2);
  std::vector<int64_t> got;
  tree.RangeQuery(Rect{{0, 0}, {1, 1}}, &got);
  EXPECT_TRUE(got.empty());
}

TEST(RTreeTest, PrunesDisjointRegions) {
  // Two far-apart clusters: querying one must not visit most of the other.
  Rng rng(74);
  RTree tree(2, 8);
  std::vector<std::pair<Rect, int64_t>> items;
  for (int64_t i = 0; i < 1000; ++i) {
    const double cx = i < 500 ? 0.0 : 1000.0;
    items.emplace_back(
        Rect::Point({cx + rng.Uniform(-1, 1), rng.Uniform(-1, 1)}), i);
  }
  tree.BulkLoad(items);
  std::vector<int64_t> got;
  const uint64_t visited = tree.RangeQuery(Rect{{-2, -2}, {2, 2}}, &got);
  EXPECT_EQ(got.size(), 500u);
  // Far fewer nodes than total leaves * 2.
  EXPECT_LT(visited, 200u);
}

// ---- PAA ----

TEST(PaaTest, MeansOfSegments) {
  const std::vector<double> s = {1, 1, 3, 3, 5, 5, 7, 7};
  const auto paa = Paa(s, 4);
  EXPECT_EQ(paa, (std::vector<double>{1, 3, 5, 7}));
}

TEST(PaaTest, LowerBoundsEuclidean) {
  Rng rng(75);
  for (int t = 0; t < 50; ++t) {
    std::vector<double> a(64), b(64);
    for (auto& v : a) v = rng.Uniform(-5, 5);
    for (auto& v : b) v = rng.Uniform(-5, 5);
    const auto pa = Paa(a, 8);
    const auto pb = Paa(b, 8);
    double paa_sq = 0.0;
    for (size_t i = 0; i < 8; ++i) {
      paa_sq += (pa[i] - pb[i]) * (pa[i] - pb[i]);
    }
    paa_sq *= 64.0 / 8.0;
    const double ed = EuclideanDistance(a, b);
    EXPECT_LE(paa_sq, ed * ed + 1e-9);
  }
}

// ---- FRM / Dual-Match / DMatch: no false dismissals + exact verify ----

class GeneralMatchStride : public ::testing::TestWithParam<size_t> {};

TEST_P(GeneralMatchStride, AgreesWithBruteForce) {
  Rng rng(76);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  PrefixStats ps(x);
  GeneralMatch::Options options;
  options.window = 32;
  options.stride = GetParam();  // 1 = FRM, 32 = Dual-Match
  const GeneralMatch gm(x, ps, options);
  for (int trial = 0; trial < 3; ++trial) {
    const size_t m = 128;
    const auto q = ExtractQuery(
        x,
        static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(x.size() - m))),
        m, 0.2, &rng);
    QueryParams params{QueryType::kRsmEd, 4.0, 1.0, 0.0, 0};
    const auto expected = BruteForceMatch(x, q, params);
    RtreeMatchStats stats;
    const auto got = gm.Match(q, params.epsilon, &stats);
    ASSERT_EQ(got.size(), expected.size()) << "stride=" << GetParam();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, expected[i].offset);
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-6);
    }
    EXPECT_GE(stats.candidate_positions, expected.size());
    EXPECT_GT(stats.index_accesses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, GeneralMatchStride,
                         ::testing::Values(1, 8, 32));

TEST(DMatchTest, AgreesWithBruteForceUnderDtw) {
  Rng rng(77);
  const TimeSeries x = GenerateSynthetic(3000, &rng);
  PrefixStats ps(x);
  DMatch::Options options;
  options.window = 32;
  const DMatch dm(x, ps, options);
  for (int trial = 0; trial < 2; ++trial) {
    const size_t m = 128;
    const auto q = ExtractQuery(
        x,
        static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(x.size() - m))),
        m, 0.2, &rng);
    QueryParams params{QueryType::kRsmDtw, 3.0, 1.0, 0.0, 5};
    const auto expected = BruteForceMatch(x, q, params);
    RtreeMatchStats stats;
    const auto got = dm.Match(q, params.epsilon, params.rho, &stats);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, expected[i].offset);
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-6);
    }
  }
}

TEST(DMatchTest, QueryTooShortReturnsEmpty) {
  Rng rng(78);
  const TimeSeries x = GenerateSynthetic(1000, &rng);
  PrefixStats ps(x);
  const DMatch dm(x, ps, {.window = 64});
  const std::vector<double> q(100, 1.0);  // < 2*64 - 1
  EXPECT_TRUE(dm.Match(q, 1.0, 5).empty());
}

TEST(GeneralMatchTest, PerWindowCandidatesReported) {
  Rng rng(79);
  const TimeSeries x = GenerateSynthetic(3000, &rng);
  PrefixStats ps(x);
  const GeneralMatch gm(x, ps, {.window = 32, .stride = 1});
  const auto q = ExtractQuery(x, 500, 128, 0.2, &rng);
  RtreeMatchStats stats;
  gm.Match(q, 4.0, &stats);
  EXPECT_EQ(stats.per_window_candidates.size(), 4u);  // 128 / 32
}

}  // namespace
}  // namespace kvmatch
