// Direct tests of the phase-2 Verifier: pruning accounting, boundary
// clamping, normalization handling, degenerate inputs, and the exactness
// of the DTW lower-bound cascade.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "baseline/brute_force.h"
#include "baseline/fast_matcher.h"
#include "common/rng.h"
#include "distance/dtw.h"
#include "distance/ed.h"
#include "distance/envelope.h"
#include "match/verifier.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

IntervalList AllOffsets(const TimeSeries& x, size_t m) {
  IntervalList cs;
  cs.AppendInterval({0, static_cast<int64_t>(x.size() - m)});
  return cs;
}

TEST(VerifierTest, FullCandidateSetEqualsBruteForce) {
  Rng rng(111);
  const TimeSeries x = GenerateSynthetic(3000, &rng);
  PrefixStats ps(x);
  const Verifier verifier(x, ps);
  const auto q = ExtractQuery(x, 900, 128, 0.2, &rng);
  for (QueryType type : {QueryType::kRsmEd, QueryType::kRsmDtw,
                         QueryType::kCnsmEd, QueryType::kCnsmDtw}) {
    QueryParams params{type, 3.5, 1.5, 3.0, 6};
    const auto expected = BruteForceMatch(x, q, params);
    const auto got = verifier.Verify(q, params, AllOffsets(x, q.size()));
    ASSERT_EQ(got.size(), expected.size())
        << "type=" << static_cast<int>(type);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, expected[i].offset);
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-6);
    }
  }
}

TEST(VerifierTest, CandidatesPastSeriesEndAreSkipped) {
  Rng rng(112);
  const TimeSeries x = GenerateSynthetic(500, &rng);
  PrefixStats ps(x);
  const Verifier verifier(x, ps);
  const auto q = ExtractQuery(x, 100, 100, 0.0, &rng);
  IntervalList cs;
  cs.AppendInterval({350, 499});  // offsets 401..499 cannot host |Q|=100
  QueryParams params{QueryType::kRsmEd, 1e6, 1.0, 0.0, 0};
  const auto got = verifier.Verify(q, params, cs);
  ASSERT_FALSE(got.empty());
  for (const auto& m : got) {
    EXPECT_LE(m.offset + q.size(), x.size());
  }
  EXPECT_EQ(got.size(), 400u - 350 + 1);
}

TEST(VerifierTest, EmptyCandidateSetYieldsNoResults) {
  Rng rng(113);
  const TimeSeries x = GenerateSynthetic(500, &rng);
  PrefixStats ps(x);
  const Verifier verifier(x, ps);
  const auto q = ExtractQuery(x, 0, 50, 0.0, &rng);
  QueryParams params{QueryType::kRsmEd, 1e6, 1.0, 0.0, 0};
  EXPECT_TRUE(verifier.Verify(q, params, IntervalList()).empty());
}

TEST(VerifierTest, StatsSeparateConstraintAndLowerBoundPruning) {
  Rng rng(114);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  PrefixStats ps(x);
  const Verifier verifier(x, ps);
  const auto q = ExtractQuery(x, 1000, 128, 0.1, &rng);
  // Tight constraints: most candidates die on α/β before any distance.
  QueryParams params{QueryType::kCnsmDtw, 2.0, 1.05, 0.2, 6};
  MatchStats stats;
  verifier.Verify(q, params, AllOffsets(x, q.size()), &stats);
  EXPECT_GT(stats.constraint_pruned, 0u);
  // Everything was either pruned or distance-checked.
  const uint64_t total = x.size() - q.size() + 1;
  EXPECT_EQ(stats.constraint_pruned + stats.lb_pruned + stats.distance_calls,
            total);
}

TEST(VerifierTest, RawTypesIgnoreConstraints) {
  Rng rng(115);
  const TimeSeries x = GenerateSynthetic(2000, &rng);
  PrefixStats ps(x);
  const Verifier verifier(x, ps);
  const auto q = ExtractQuery(x, 500, 100, 0.0, &rng);
  // Absurd constraints must not affect RSM results.
  QueryParams rsm{QueryType::kRsmEd, 5.0, 1.0, 0.0, 0};
  QueryParams rsm_weird = rsm;
  rsm_weird.alpha = 1.0;
  rsm_weird.beta = 0.0;
  const auto a = verifier.Verify(q, rsm, AllOffsets(x, q.size()));
  const auto b = verifier.Verify(q, rsm_weird, AllOffsets(x, q.size()));
  EXPECT_EQ(a.size(), b.size());
}

TEST(VerifierTest, ConstantCandidateAgainstConstantQuery) {
  // σ = 0 on both sides: normalized forms are all-zero, distance 0.
  TimeSeries x(std::vector<double>(300, 7.0));
  PrefixStats ps(x);
  const Verifier verifier(x, ps);
  const std::vector<double> q(50, 7.0);
  QueryParams params{QueryType::kCnsmEd, 0.1, 1.5, 1.0, 0};
  const auto got = verifier.Verify(q, params, AllOffsets(x, q.size()));
  EXPECT_EQ(got.size(), 300u - 50 + 1);
  for (const auto& m : got) EXPECT_NEAR(m.distance, 0.0, 1e-12);
}

TEST(VerifierTest, DistanceReportedIsNormalizedForCnsm) {
  Rng rng(116);
  const TimeSeries x = GenerateSynthetic(2000, &rng);
  PrefixStats ps(x);
  const Verifier verifier(x, ps);
  const size_t off = 700, m = 100;
  const auto base = ExtractQuery(x, off, m, 0.0, &rng);
  // Shifted copy: raw distance is large, normalized distance ~0.
  const auto q = ShiftScale(base, 5.0, 1.0);
  QueryParams params{QueryType::kCnsmEd, 0.5, 1.1, 6.0, 0};
  const auto got = verifier.Verify(q, params, AllOffsets(x, m));
  bool found = false;
  for (const auto& r : got) {
    if (r.offset == off) {
      found = true;
      EXPECT_NEAR(r.distance, 0.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}


/// The scalar tier plus the AVX2 tier when this machine can run it.
std::vector<const simd::Kernels*> KernelTiers() {
  std::vector<const simd::Kernels*> tiers = {&simd::ScalarKernels()};
  if (const simd::Kernels* avx2 = simd::Avx2KernelsOrNull()) {
    tiers.push_back(avx2);
  }
  return tiers;
}

/// A synthetic series that opens with a run of exactly representable
/// constant values: the prefix sums over that run are exact, so its
/// windows have σ = 0 and the verifier normalizes them with inv = 0.
TimeSeries SeriesWithConstantHead(size_t head, size_t tail, Rng* rng) {
  std::vector<double> v(head, 2.0);
  const TimeSeries body = GenerateSynthetic(tail, rng);
  v.insert(v.end(), body.values().begin(), body.values().end());
  return TimeSeries(std::move(v));
}

/// The candidate as the DP sees it: raw for RSM, z-normalized with the
/// verifier's (mean, inv) for cNSM.
std::vector<double> Comparable(const TimeSeries& x, const PrefixStats& ps,
                               size_t off, size_t m, bool normalized) {
  std::vector<double> s(x.values().begin() + static_cast<int64_t>(off),
                        x.values().begin() + static_cast<int64_t>(off + m));
  if (!normalized) return s;
  const MeanStd ms = ps.WindowMeanStd(off, m);
  const double inv = ms.std > 1e-12 ? 1.0 / ms.std : 0.0;
  simd::ScalarKernels().znormalize(s.data(), m, ms.mean, inv, s.data());
  return s;
}

/// An ε that about 5% of a stride sample of candidates meet, so the
/// cascade sees matches, near misses and clear rejects.
double CalibrateEpsilon(const TimeSeries& x, const PrefixStats& ps,
                        std::span<const double> q_cmp, size_t rho,
                        bool normalized) {
  const size_t m = q_cmp.size();
  std::vector<double> d;
  for (size_t off = 0; off + m <= x.size(); off += 7) {
    d.push_back(
        DtwDistance(Comparable(x, ps, off, m, normalized), q_cmp, rho));
  }
  std::sort(d.begin(), d.end());
  return d[d.size() / 20];
}

// The lower bounds only prune: the default cascade (LB_Kim, LB_Keogh_EQ,
// LB_Keogh_EC on the block envelope, the DP fed the larger bound's tail)
// must return exactly what the bare DP returns, at every block size (so
// candidates sit on block edges), on every tier, for queries shorter than
// LB_Kim's four points, bands from 0 to wider than the query, and σ = 0
// windows.
TEST(VerifierCascadeTest, CascadeReturnsExactlyTheBareDpMatches) {
  Rng rng(120);
  const TimeSeries x = SeriesWithConstantHead(300, 700, &rng);
  const PrefixStats ps(x);
  const Verifier verifier(x, ps);
  size_t cases = 0, matched_cases = 0;
  for (QueryType type : {QueryType::kRsmDtw, QueryType::kCnsmDtw}) {
    const bool normalized = IsNormalized(type);
    for (size_t m : {1u, 2u, 3u, 4u, 5u, 64u, 257u}) {
      // A noisy copy of a stretch of the body, and a constant query from
      // the head (σ_Q = 0: under cNSM only σ = 0 windows pass α).
      const std::vector<std::vector<double>> queries = {
          ExtractQuery(x, 500, m, 0.3, &rng), ExtractQuery(x, 10, m, 0.0,
                                                           &rng)};
      std::vector<size_t> rhos = {0, 1, m / 20, m - 1, m + 5};
      std::sort(rhos.begin(), rhos.end());
      rhos.erase(std::unique(rhos.begin(), rhos.end()), rhos.end());
      for (const auto& q : queries) {
        const std::vector<double> q_cmp =
            normalized ? ZNormalize(q) : std::vector<double>(q);
        for (size_t rho : rhos) {
          QueryParams params{type, 0.0, 2.0, 10.0, rho};
          params.epsilon = CalibrateEpsilon(x, ps, q_cmp, rho, normalized);
          const IntervalList cs = AllOffsets(x, m);
          VerifyOptions bare;
          bare.use_lb_kim = false;
          bare.use_lb_keogh = false;
          bare.kernels = &simd::ScalarKernels();
          const auto want = verifier.Verify(q, params, cs, nullptr, bare);
          ++cases;
          if (!want.empty()) ++matched_cases;
          for (const simd::Kernels* ker : KernelTiers()) {
            for (size_t block : {1u, 7u, 512u}) {
              SCOPED_TRACE(std::string(normalized ? "cnsm" : "rsm") +
                           " m=" + std::to_string(m) +
                           " rho=" + std::to_string(rho) + " q_std=" +
                           std::to_string(ComputeMeanStd(q).std) +
                           " tier=" + simd::TierName(ker->tier) +
                           " block=" + std::to_string(block));
              VerifyOptions cascade;
              cascade.kernels = ker;
              cascade.block_candidates = block;
              MatchStats stats;
              stats.candidate_positions =
                  static_cast<uint64_t>(cs.num_positions());
              const auto got = verifier.Verify(q, params, cs, &stats, cascade);
              ASSERT_EQ(got.size(), want.size());
              for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].offset, want[i].offset);
                EXPECT_EQ(std::bit_cast<uint64_t>(got[i].distance),
                          std::bit_cast<uint64_t>(want[i].distance));
              }
              EXPECT_EQ(stats.constraint_pruned + stats.lb_pruned +
                            stats.distance_calls,
                        stats.candidate_positions);
            }
          }
        }
      }
    }
  }
  // Most cases must have matches, or the sweep would prove little.
  EXPECT_GT(matched_cases * 2, cases);
}

// At ρ = 0 LB_Keogh equals the distance in exact arithmetic, and its
// 8-lane sum can round an ulp above the DP's sequential one. With ε on the
// boundary, only the rounding allowance keeps such a candidate: single-
// candidate series, ε at the candidate's own distance and its neighbours.
TEST(VerifierCascadeTest, TightBoundsKeepBoundaryMatches) {
  Rng rng(122);
  const size_t m = 64;
  size_t kept = 0;
  for (int t = 0; t < 300; ++t) {
    std::vector<double> xs(m);
    for (auto& v : xs) v = rng.Uniform(-5, 5);
    const TimeSeries x(xs);
    const PrefixStats ps(x);
    const Verifier verifier(x, ps);
    std::vector<double> q(m);
    for (auto& v : q) v = rng.Uniform(-5, 5);
    for (QueryType type : {QueryType::kRsmDtw, QueryType::kCnsmDtw}) {
      const bool normalized = IsNormalized(type);
      const double d = DtwDistance(
          Comparable(x, ps, 0, m, normalized),
          normalized ? ZNormalize(q) : q, 0);
      for (double eps : {d, std::nextafter(d, 0.0), std::nextafter(d, 1e9)}) {
        const QueryParams params{type, eps, 1e9, 1e9, 0};
        VerifyOptions bare;
        bare.use_lb_kim = false;
        bare.use_lb_keogh = false;
        const auto want = verifier.Verify(q, params, AllOffsets(x, m),
                                          nullptr, bare);
        const auto got = verifier.Verify(q, params, AllOffsets(x, m));
        ASSERT_EQ(got.size(), want.size())
            << "trial=" << t << " normalized=" << normalized
            << " eps=" << eps;
        // FAST prunes with the same bounds plus LB_PAA. Brute force
        // normalizes with two-pass statistics, not the prefix sums the
        // others use, so its ε = d verdict is comparable for RSM only.
        ASSERT_EQ(FastMatcher(x, ps).Match(q, params).size(), want.size())
            << "trial=" << t << " normalized=" << normalized
            << " eps=" << eps;
        if (!normalized) {
          ASSERT_EQ(BruteForceMatch(x, q, params).size(), want.size())
              << "trial=" << t << " eps=" << eps;
        }
        kept += got.size();
      }
    }
  }
  EXPECT_GT(kept, 0u);
}

// LB_Keogh_EC against an envelope taken over a whole gathered block is
// looser than against the candidate's own envelope at the candidate's
// edges, but it must still lower-bound DTW² for every candidate.
TEST(VerifierCascadeTest, BlockEnvelopeEcBoundsDtw) {
  Rng rng(121);
  const TimeSeries x = SeriesWithConstantHead(100, 900, &rng);
  const PrefixStats ps(x);
  const std::vector<double>& xs = x.values();
  std::vector<size_t> queues;
  for (QueryType type : {QueryType::kRsmDtw, QueryType::kCnsmDtw}) {
    const bool normalized = IsNormalized(type);
    for (size_t m : {4u, 64u}) {
      const auto q = ExtractQuery(x, 400, m, 0.5, &rng);
      const std::vector<double> q_cmp =
          normalized ? ZNormalize(q) : std::vector<double>(q);
      for (size_t rho : {size_t{0}, size_t{1}, m / 8, m + 5}) {
        for (size_t block : {1u, 7u, 512u}) {
          SCOPED_TRACE(std::string(normalized ? "cnsm" : "rsm") +
                       " m=" + std::to_string(m) +
                       " rho=" + std::to_string(rho) +
                       " block=" + std::to_string(block));
          for (size_t l = 0; l + m <= xs.size(); l += block) {
            const size_t count = std::min(block, xs.size() - m + 1 - l);
            const size_t span_len = count + m - 1;
            std::vector<double> lower(span_len), upper(span_len);
            BuildEnvelope(std::span<const double>(xs).subspan(l, span_len),
                          rho, lower.data(), upper.data(), queues);
            for (size_t k = 0; k < count; ++k) {
              std::vector<double> lo(lower.begin() + static_cast<int64_t>(k),
                                     lower.begin() +
                                         static_cast<int64_t>(k + m));
              std::vector<double> up(upper.begin() + static_cast<int64_t>(k),
                                     upper.begin() +
                                         static_cast<int64_t>(k + m));
              if (normalized) {
                const MeanStd ms = ps.WindowMeanStd(l + k, m);
                const double inv = ms.std > 1e-12 ? 1.0 / ms.std : 0.0;
                for (auto* bound : {&lo, &up}) {
                  simd::ScalarKernels().znormalize(bound->data(), m, ms.mean,
                                                   inv, bound->data());
                }
              }
              const double dtw = DtwDistance(
                  Comparable(x, ps, l + k, m, normalized), q_cmp, rho);
              for (const simd::Kernels* ker : KernelTiers()) {
                const double ec = ker->lb_keogh(
                    q_cmp.data(), lo.data(), up.data(), m, 0.0, 1.0,
                    std::numeric_limits<double>::infinity(), nullptr,
                    nullptr);
                ASSERT_LE(ec, dtw * dtw * (1 + 1e-12) + 1e-12)
                    << "offset=" << l + k << " tier="
                    << simd::TierName(ker->tier);
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kvmatch
