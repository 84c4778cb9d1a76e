// Unit + property tests for distance/: ED, DTW, envelopes, lower bounds.
//
// The early-abandoning ED, reordered normalized ED, L1 and LB_Keogh cases
// run every available simd::Kernels tier (scalar always, AVX2 when the
// machine has it) against independent formulas: EuclideanDistance,
// L1Distance, explicit ZNormalize and an explicit envelope clamp. The
// parity suite only compares tiers with each other; these tests check
// that the shared kernels compute the right values. The band-only DTW DP
// is checked bit for bit against ReferenceBandedDtw, the textbook DP that
// clears a full row per DP row.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "distance/dtw.h"
#include "distance/ed.h"
#include "distance/envelope.h"
#include "distance/lower_bounds.h"
#include "distance/simd/kernels.h"
#include "ts/time_series.h"

namespace kvmatch {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> RandomSeries(size_t n, Rng* rng, double lo = -5,
                                 double hi = 5) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->Uniform(lo, hi);
  return v;
}

/// The scalar tier plus the AVX2 tier when this machine can run it.
std::vector<const simd::Kernels*> KernelTiers() {
  std::vector<const simd::Kernels*> tiers = {&simd::ScalarKernels()};
  if (const simd::Kernels* avx2 = simd::Avx2KernelsOrNull()) {
    tiers.push_back(avx2);
  }
  return tiers;
}

/// LB_Keogh straight from the definition: squared distance of each point
/// to the envelope band, summed in order.
double ExplicitKeogh(const std::vector<double>& s, const Envelope& env) {
  double lb = 0.0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] > env.upper[i]) {
      lb += (s[i] - env.upper[i]) * (s[i] - env.upper[i]);
    } else if (s[i] < env.lower[i]) {
      lb += (env.lower[i] - s[i]) * (env.lower[i] - s[i]);
    }
  }
  return lb;
}

std::string TierAndLength(const simd::Kernels& ker, size_t n) {
  return std::string(simd::TierName(ker.tier)) + " n=" + std::to_string(n);
}

double KernelKeogh(const simd::Kernels& ker, const std::vector<double>& s,
                   const Envelope& env, double* cb = nullptr) {
  return ker.lb_keogh(s.data(), env.lower.data(), env.upper.data(), s.size(),
                      kInf, cb);
}

TEST(EdTest, KnownValue) {
  const std::vector<double> a = {0, 0, 0};
  const std::vector<double> b = {1, 2, 2};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 3.0);
}

TEST(EdTest, ZeroForIdentical) {
  Rng rng(1);
  const auto a = RandomSeries(100, &rng);
  EXPECT_EQ(EuclideanDistance(a, a), 0.0);
}

// Lengths below one 8-lane group, with a ragged tail, and past the
// 64-element abandon checkpoint.
const size_t kKernelLengths[] = {5, 64, 131};

TEST(EdTest, EarlyAbandonMatchesExactWhenUnderThreshold) {
  Rng rng(2);
  for (const simd::Kernels* ker : KernelTiers()) {
    for (size_t n : kKernelLengths) {
      SCOPED_TRACE(TierAndLength(*ker, n));
      const auto a = RandomSeries(n, &rng);
      const auto b = RandomSeries(n, &rng);
      const double exact = EuclideanDistance(a, b);
      const double sq =
          ker->squared_ed(a.data(), b.data(), n, exact * exact + 1.0);
      EXPECT_NEAR(std::sqrt(sq), exact, 1e-9);
    }
  }
}

TEST(EdTest, EarlyAbandonReturnsInfWhenOverThreshold) {
  Rng rng(3);
  for (const simd::Kernels* ker : KernelTiers()) {
    for (size_t n : kKernelLengths) {
      SCOPED_TRACE(TierAndLength(*ker, n));
      const auto a = RandomSeries(n, &rng);
      const auto b = RandomSeries(n, &rng);
      const double exact = EuclideanDistance(a, b);
      EXPECT_EQ(ker->squared_ed(a.data(), b.data(), n, exact * exact * 0.5),
                kInf);
    }
  }
}

TEST(EdTest, SortedAbsOrderIsDecreasing) {
  const std::vector<double> q = {0.5, -3.0, 1.0, -0.1};
  const auto order = SortedAbsOrder(q);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);  // |-3.0|
  EXPECT_EQ(order[1], 2);  // |1.0|
  EXPECT_EQ(order[2], 0);
  EXPECT_EQ(order[3], 3);
}

TEST(EdTest, ReorderedNormalizedEdMatchesNaive) {
  Rng rng(4);
  for (const simd::Kernels* ker : KernelTiers()) {
    for (size_t n : kKernelLengths) {
      SCOPED_TRACE(TierAndLength(*ker, n));
      const auto s = RandomSeries(n, &rng);
      const auto q = ZNormalize(RandomSeries(n, &rng));
      const double naive = EuclideanDistance(ZNormalize(s), q);
      const auto order = SortedAbsOrder(q);
      std::vector<double> q_ordered(n);
      for (size_t i = 0; i < n; ++i) {
        q_ordered[i] = q[static_cast<size_t>(order[i])];
      }
      const MeanStd ms = ComputeMeanStd(s);
      const double sq = ker->squared_ed_znorm_ordered(
          s.data(), order.data(), q_ordered.data(), n, ms.mean,
          1.0 / ms.std, kInf);
      EXPECT_NEAR(std::sqrt(sq), naive, 1e-9);
      EXPECT_EQ(ker->squared_ed_znorm_ordered(s.data(), order.data(),
                                              q_ordered.data(), n, ms.mean,
                                              1.0 / ms.std,
                                              naive * naive * 0.5),
                kInf);
    }
  }
}

TEST(EdTest, L1KnownValueAndEarlyAbandon) {
  const std::vector<double> a = {0, 0, 0, 0};
  const std::vector<double> b = {1, -2, 3, -4};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 10.0);
  for (const simd::Kernels* ker : KernelTiers()) {
    SCOPED_TRACE(simd::TierName(ker->tier));
    EXPECT_DOUBLE_EQ(ker->l1(a.data(), b.data(), 4, kInf), 10.0);
    EXPECT_EQ(ker->l1(a.data(), b.data(), 4, 9.0), kInf);
    EXPECT_DOUBLE_EQ(ker->l1(a.data(), b.data(), 4, 10.0), 10.0);
  }
}

TEST(EdTest, L1KernelMatchesPlainL1) {
  Rng rng(20);
  for (const simd::Kernels* ker : KernelTiers()) {
    for (size_t n : kKernelLengths) {
      SCOPED_TRACE(TierAndLength(*ker, n));
      const auto a = RandomSeries(n, &rng);
      const auto b = RandomSeries(n, &rng);
      const double exact = L1Distance(a, b);
      EXPECT_NEAR(ker->l1(a.data(), b.data(), n, exact + 1.0), exact, 1e-9);
      EXPECT_EQ(ker->l1(a.data(), b.data(), n, exact * 0.5), kInf);
    }
  }
}

TEST(EdTest, L1DominatesEd) {
  // ||x||_1 >= ||x||_2 always.
  Rng rng(19);
  for (int t = 0; t < 30; ++t) {
    const auto a = RandomSeries(64, &rng);
    const auto b = RandomSeries(64, &rng);
    EXPECT_GE(L1Distance(a, b), EuclideanDistance(a, b) - 1e-9);
  }
}

TEST(DtwTest, RhoZeroEqualsEd) {
  Rng rng(5);
  const auto a = RandomSeries(50, &rng);
  const auto b = RandomSeries(50, &rng);
  EXPECT_NEAR(DtwDistance(a, b, 0), EuclideanDistance(a, b), 1e-9);
}

TEST(DtwTest, NeverExceedsEd) {
  Rng rng(6);
  for (int t = 0; t < 20; ++t) {
    const auto a = RandomSeries(40, &rng);
    const auto b = RandomSeries(40, &rng);
    EXPECT_LE(DtwDistance(a, b, 5), EuclideanDistance(a, b) + 1e-9);
  }
}

TEST(DtwTest, WideBandEqualsFullDtw) {
  Rng rng(7);
  for (int t = 0; t < 10; ++t) {
    const auto a = RandomSeries(30, &rng);
    const auto b = RandomSeries(30, &rng);
    EXPECT_NEAR(DtwDistance(a, b, 29), DtwDistanceFull(a, b), 1e-9);
  }
}

TEST(DtwTest, BandMonotoneInRho) {
  Rng rng(8);
  const auto a = RandomSeries(60, &rng);
  const auto b = RandomSeries(60, &rng);
  double prev = kInf;
  for (size_t rho : {0u, 1u, 2u, 5u, 10u, 59u}) {
    const double d = DtwDistance(a, b, rho);
    EXPECT_LE(d, prev + 1e-9);
    prev = d;
  }
}

TEST(DtwTest, WarpingAlignsShiftedSpike) {
  // A spike shifted by 2 positions: ED is large, DTW with rho>=2 is small.
  std::vector<double> a(20, 0.0), b(20, 0.0);
  a[5] = 10.0;
  b[7] = 10.0;
  EXPECT_GT(EuclideanDistance(a, b), 10.0);
  EXPECT_NEAR(DtwDistance(a, b, 2), 0.0, 1e-9);
}

TEST(DtwTest, EarlyAbandonConsistentWithExact) {
  Rng rng(9);
  for (int t = 0; t < 50; ++t) {
    const auto a = RandomSeries(32, &rng);
    const auto b = RandomSeries(32, &rng);
    const double exact = DtwDistance(a, b, 3);
    // Threshold above: must return the exact value.
    EXPECT_NEAR(DtwDistance(a, b, 3, exact + 0.1), exact, 1e-9);
    // Threshold below: must return inf.
    EXPECT_EQ(DtwDistance(a, b, 3, exact * 0.9), kInf);
  }
}

TEST(DtwTest, EmptyInputIsZero) {
  const std::vector<double> empty;
  EXPECT_EQ(DtwDistance(empty, empty, 0), 0.0);
}

/// The banded DP in its textbook form: two m-wide rows, the current one
/// cleared in full after every DP row, branches for the matrix edges. It
/// costs O(m²) per call; DtwDistance must return exactly its doubles.
double ReferenceBandedDtw(std::span<const double> a,
                          std::span<const double> b, size_t rho,
                          double threshold, std::span<const double> cum_lb,
                          const CancelToken* cancel) {
  const size_t m = a.size();
  if (m == 0) return 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double thr_sq = threshold < inf ? threshold * threshold : inf;

  // Row-by-row DP over the band; prev/curr hold squared costs.
  std::vector<double> prev(m, inf), curr(m, inf);
  for (size_t i = 0; i < m; ++i) {
    if (cancel != nullptr && i % kDtwCancelRows == 0 && cancel->cancelled()) {
      return inf;
    }
    const size_t j_lo = i > rho ? i - rho : 0;
    const size_t j_hi = std::min(m - 1, i + rho);
    double row_min = inf;
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const double d = a[i] - b[j];
      const double cost = d * d;
      double best;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        best = inf;
        if (i > 0) best = std::min(best, prev[j]);                    // a-suffix
        if (j > 0) best = std::min(best, curr[j - 1]);                // b-suffix
        if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);       // both
      }
      curr[j] = best + cost;
      row_min = std::min(row_min, curr[j]);
    }
    // Early abandoning: the final cost can only grow along any path; add
    // the cumulative lower bound of the remaining tail when available.
    if (thr_sq < inf) {
      double tail = 0.0;
      if (!cum_lb.empty()) {
        const size_t next = std::min(m, i + rho + 1);
        if (next < cum_lb.size()) tail = cum_lb[next];
      }
      if (row_min + tail > thr_sq) return inf;
    }
    std::swap(prev, curr);
    std::fill(curr.begin(), curr.end(), inf);
  }
  // Uniform early-abandon contract: any result above the threshold is
  // reported as +inf, whether detected mid-band or at the end.
  if (prev[m - 1] > thr_sq) return inf;
  return std::sqrt(prev[m - 1]);
}

/// Bit-for-bit equality, so NaN results compare equal to themselves.
bool SameBits(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

TEST(DtwTest, BandedDpBitIdenticalToFullRowReference) {
  Rng rng(41);
  const CancelToken live;  // never cancelled: the polling must not matter
  for (size_t m : {1u, 2u, 3u, 17u, 256u}) {
    std::vector<size_t> rhos = {0, 1, 3, 12, m - 1, m, m + 7};
    if (m >= 2) rhos.push_back(m - 2);
    for (size_t rho : rhos) {
      for (int t = 0; t < 3; ++t) {
        const auto a = RandomSeries(m, &rng);
        const auto b = RandomSeries(m, &rng);
        // cum_lb as the verifier builds it: LB_Keogh of the candidate
        // against the query's envelope, suffix-summed.
        const Envelope env = BuildEnvelope(b, rho);
        std::vector<double> cb(m), cum(m + 1);
        KernelKeogh(simd::ActiveKernels(), a, env, cb.data());
        SuffixCumulate(cb, cum);

        const double exact = ReferenceBandedDtw(a, b, rho, kInf, {}, nullptr);
        for (double thr : {kInf, exact, std::nextafter(exact, 0.0),
                           0.9 * exact}) {
          for (std::span<const double> cum_lb :
               {std::span<const double>(), std::span<const double>(cum)}) {
            SCOPED_TRACE("m=" + std::to_string(m) + " rho=" +
                         std::to_string(rho) + " thr=" + std::to_string(thr) +
                         " cum_lb=" + std::to_string(cum_lb.size()));
            const double want =
                ReferenceBandedDtw(a, b, rho, thr, cum_lb, nullptr);
            EXPECT_EQ(DtwDistance(a, b, rho, thr, cum_lb), want);
            EXPECT_EQ(DtwDistance(a, b, rho, thr, cum_lb, &live), want);
          }
        }
        EXPECT_EQ(DtwDistance(a, b, rho), exact);
      }
    }
  }
}

TEST(DtwTest, BandedDpBitIdenticalOnNonFiniteInput) {
  // NaN and ±inf points: the DP's minimum must still pick the same
  // operands as the reference, so even NaN payloads come out identical.
  Rng rng(43);
  const size_t m = 40;
  auto a = RandomSeries(m, &rng);
  auto b = RandomSeries(m, &rng);
  a[7] = std::numeric_limits<double>::quiet_NaN();
  a[20] = kInf;
  b[21] = kInf;
  b[30] = -kInf;
  for (size_t rho : {0u, 1u, 3u, 12u, 39u}) {
    for (double thr : {kInf, 50.0}) {
      SCOPED_TRACE("rho=" + std::to_string(rho) + " thr=" +
                   std::to_string(thr));
      EXPECT_TRUE(SameBits(DtwDistance(a, b, rho, thr),
                           ReferenceBandedDtw(a, b, rho, thr, {}, nullptr)));
    }
  }
  auto c = RandomSeries(m, &rng);
  c[m - 1] = std::numeric_limits<double>::quiet_NaN();  // NaN final cell
  EXPECT_TRUE(std::isnan(DtwDistance(c, b, 3)));
  EXPECT_TRUE(SameBits(DtwDistance(c, b, 3),
                       ReferenceBandedDtw(c, b, 3, kInf, {}, nullptr)));
}

TEST(EnvelopeTest, MatchesNaiveMinMax) {
  Rng rng(10);
  const auto q = RandomSeries(200, &rng);
  for (size_t rho : {0u, 1u, 5u, 17u, 199u}) {
    const Envelope env = BuildEnvelope(q, rho);
    for (size_t i = 0; i < q.size(); ++i) {
      const size_t lo = i > rho ? i - rho : 0;
      const size_t hi = std::min(q.size() - 1, i + rho);
      double mn = kInf, mx = -kInf;
      for (size_t k = lo; k <= hi; ++k) {
        mn = std::min(mn, q[k]);
        mx = std::max(mx, q[k]);
      }
      ASSERT_EQ(env.lower[i], mn) << "rho=" << rho << " i=" << i;
      ASSERT_EQ(env.upper[i], mx) << "rho=" << rho << " i=" << i;
    }
  }
}

TEST(EnvelopeTest, RhoZeroIsIdentity) {
  Rng rng(11);
  const auto q = RandomSeries(50, &rng);
  const Envelope env = BuildEnvelope(q, 0);
  EXPECT_EQ(env.lower, q);
  EXPECT_EQ(env.upper, q);
}

TEST(EnvelopeTest, SandwichesQuery) {
  Rng rng(12);
  const auto q = RandomSeries(100, &rng);
  const Envelope env = BuildEnvelope(q, 7);
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_LE(env.lower[i], q[i]);
    EXPECT_GE(env.upper[i], q[i]);
  }
}

// Property sweep: every lower bound must lower-bound banded DTW.
class LowerBoundProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(LowerBoundProperty, BoundsSandwichDtw) {
  const size_t rho = GetParam();
  Rng rng(100 + rho);
  for (int t = 0; t < 60; ++t) {
    const auto s = RandomSeries(96, &rng);
    const auto q = RandomSeries(96, &rng);
    const Envelope env = BuildEnvelope(q, rho);
    const double dtw = DtwDistance(s, q, rho);
    const double dtw_sq = dtw * dtw;

    EXPECT_LE(LbKimSquared(s, q), dtw_sq + 1e-9);

    const double explicit_keogh = ExplicitKeogh(s, env);
    EXPECT_LE(explicit_keogh, dtw_sq + 1e-9);
    for (const simd::Kernels* ker : KernelTiers()) {
      SCOPED_TRACE(simd::TierName(ker->tier));
      std::vector<double> cb(s.size());
      const double keogh = KernelKeogh(*ker, s, env, cb.data());
      EXPECT_NEAR(keogh, explicit_keogh, 1e-9);
      EXPECT_NEAR(KernelKeogh(*ker, s, env), keogh, 1e-9);

      // Cumulative array sums to the bound.
      std::vector<double> cum(cb.size() + 1);
      SuffixCumulate(cb, cum);
      EXPECT_NEAR(cum[0], keogh, 1e-9);
      EXPECT_EQ(cum.back(), 0.0);
    }

    // LB_PAA over w=16 windows.
    const size_t w = 16, p = 96 / w;
    std::vector<double> s_means(p), l_means(p), u_means(p);
    for (size_t i = 0; i < p; ++i) {
      s_means[i] = Mean(std::span<const double>(s).subspan(i * w, w));
      l_means[i] = Mean(std::span<const double>(env.lower).subspan(i * w, w));
      u_means[i] = Mean(std::span<const double>(env.upper).subspan(i * w, w));
    }
    EXPECT_LE(LbPaaSquared(s_means, l_means, u_means, w), dtw_sq + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Rho, LowerBoundProperty,
                         ::testing::Values(0, 1, 3, 5, 10));

TEST(LowerBoundTest, NormalizedKeoghMatchesExplicitNormalization) {
  Rng rng(14);
  const auto s = RandomSeries(64, &rng);
  const auto q = ZNormalize(RandomSeries(64, &rng));
  const Envelope env = BuildEnvelope(q, 4);
  const MeanStd ms = ComputeMeanStd(s);
  const auto s_hat = ZNormalize(s);
  for (const simd::Kernels* ker : KernelTiers()) {
    SCOPED_TRACE(simd::TierName(ker->tier));
    std::vector<double> on_the_fly(s.size());
    ker->znormalize(s.data(), s.size(), ms.mean, 1.0 / ms.std,
                    on_the_fly.data());
    for (size_t i = 0; i < s.size(); ++i) {
      EXPECT_NEAR(on_the_fly[i], s_hat[i], 1e-12) << "i=" << i;
    }
    EXPECT_NEAR(KernelKeogh(*ker, on_the_fly, env), ExplicitKeogh(s_hat, env),
                1e-9);
  }
}

TEST(LowerBoundTest, KeoghZeroInsideEnvelope) {
  Rng rng(15);
  const auto q = RandomSeries(64, &rng);
  const Envelope env = BuildEnvelope(q, 3);
  // The query itself lies inside its own envelope.
  for (const simd::Kernels* ker : KernelTiers()) {
    EXPECT_EQ(KernelKeogh(*ker, q, env), 0.0) << simd::TierName(ker->tier);
  }
}

TEST(LowerBoundTest, LbKimUsesEndpoints) {
  std::vector<double> s = {5.0, 0, 0, 0, 0, 0, 0, 3.0};
  std::vector<double> q(8, 0.0);
  EXPECT_GE(LbKimSquared(s, q), 25.0 + 9.0 - 1e-9);
}

}  // namespace
}  // namespace kvmatch
