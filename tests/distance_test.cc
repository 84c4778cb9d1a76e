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
#include <deque>
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
                      0.0, 1.0, kInf, cb, nullptr);
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
  const double thr_sq = SquaredThreshold(threshold);

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
    // Early abandoning: the final cost can only grow along any path, so
    // the row minimum is compared exactly; with the cumulative lower bound
    // of the remaining tail the test allows for rounding.
    if (thr_sq < inf) {
      if (row_min > thr_sq) return inf;
      if (!cum_lb.empty()) {
        const size_t next = std::min(m, i + rho + 1);
        if (next < cum_lb.size() &&
            row_min + cum_lb[next] > WidenForRounding(thr_sq, m)) {
          return inf;
        }
      }
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
        // A threshold equal to the distance keeps it, at every row.
        EXPECT_EQ(DtwDistance(a, b, rho, exact), exact);
        // The tail only speeds abandoning up: at thresholds on the match
        // boundary the verdict is the one the DP reaches without it, even
        // at ρ = 0 where the LB_Keogh tail is exact in real arithmetic and
        // its reverse-order sum can round above the DP's forward sum.
        for (double thr : {exact, std::nextafter(exact, kInf),
                           std::nextafter(exact, 0.0)}) {
          EXPECT_EQ(DtwDistance(a, b, rho, thr, cum),
                    DtwDistance(a, b, rho, thr))
              << "m=" << m << " rho=" << rho << " thr=" << thr;
        }
      }
    }
  }
}

TEST(DtwTest, SquaredThresholdIsTheLargestSquareWithinThreshold) {
  Rng rng(44);
  int above_plain_square = 0;
  for (int t = 0; t < 2000; ++t) {
    const double thr = std::sqrt(rng.Uniform(0, 1000));
    const double c = SquaredThreshold(thr);
    ASSERT_LE(std::sqrt(c), thr) << "thr=" << thr;
    ASSERT_GT(std::sqrt(std::nextafter(c, kInf)), thr) << "thr=" << thr;
    ASSERT_GE(c, thr * thr);
    if (c > thr * thr) ++above_plain_square;
  }
  // thr² alone is often short, or the helper would not be needed.
  EXPECT_GT(above_plain_square, 0);
  EXPECT_EQ(SquaredThreshold(0.0), 0.0);
  EXPECT_EQ(SquaredThreshold(kInf), kInf);
  EXPECT_EQ(SquaredThreshold(std::numeric_limits<double>::quiet_NaN()), kInf);
  EXPECT_EQ(SquaredThreshold(-1.0), -kInf);
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

/// The envelope routine as it was before the flat-array queues: Lemire's
/// streaming min/max on std::deque, kept as a second reference.
Envelope DequeEnvelope(const std::vector<double>& q, size_t rho) {
  const size_t m = q.size();
  Envelope env;
  env.lower.resize(m);
  env.upper.resize(m);
  std::deque<size_t> max_dq, min_dq;
  size_t right = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t win_hi = std::min(m - 1, i + rho);
    while (right <= win_hi) {
      while (!max_dq.empty() && q[max_dq.back()] <= q[right]) {
        max_dq.pop_back();
      }
      max_dq.push_back(right);
      while (!min_dq.empty() && q[min_dq.back()] >= q[right]) {
        min_dq.pop_back();
      }
      min_dq.push_back(right);
      ++right;
    }
    const size_t win_lo = i > rho ? i - rho : 0;
    while (max_dq.front() < win_lo) max_dq.pop_front();
    while (min_dq.front() < win_lo) min_dq.pop_front();
    env.upper[i] = q[max_dq.front()];
    env.lower[i] = q[min_dq.front()];
  }
  return env;
}

TEST(EnvelopeTest, FlatQueuesMatchDequeAndNaive) {
  Rng rng(13);
  // One scratch across every call: reuse must not leak state between
  // envelopes of different lengths.
  std::vector<size_t> queues;
  for (size_t m : {1u, 2u, 7u, 256u}) {
    for (size_t rho : {size_t{0}, size_t{1}, m - 1, m + 3}) {
      // Random values, then plateau-heavy values drawn from three levels
      // so that runs of equal values straddle window edges.
      for (int plateaus = 0; plateaus < 2; ++plateaus) {
        std::vector<double> x = RandomSeries(m, &rng);
        if (plateaus == 1) {
          for (auto& v : x) v = static_cast<double>(rng.UniformInt(0, 2));
        }
        SCOPED_TRACE("m=" + std::to_string(m) + " rho=" +
                     std::to_string(rho) + " plateaus=" +
                     std::to_string(plateaus));
        std::vector<double> lower(m, kInf), upper(m, -kInf);
        BuildEnvelope(x, rho, lower.data(), upper.data(), queues);
        const Envelope ref = DequeEnvelope(x, rho);
        EXPECT_EQ(lower, ref.lower);
        EXPECT_EQ(upper, ref.upper);
        EXPECT_EQ(BuildEnvelope(x, rho).lower, ref.lower);
        for (size_t i = 0; i < m; ++i) {
          const size_t lo = i > rho ? i - rho : 0;
          const size_t hi = std::min(m - 1, i + rho);
          double mn = kInf, mx = -kInf;
          for (size_t k = lo; k <= hi; ++k) {
            mn = std::min(mn, x[k]);
            mx = std::max(mx, x[k]);
          }
          ASSERT_EQ(lower[i], mn) << "i=" << i;
          ASSERT_EQ(upper[i], mx) << "i=" << i;
        }
      }
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

    EXPECT_LE(LbKimSquared(s.data(), 0.0, 1.0, q), dtw_sq + 1e-9);

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

TEST(LowerBoundTest, KeoghNormalizesInsideTheKernel) {
  // The kernel's in-loop normalization writes the same doubles as the
  // znormalize kernel and returns the same bound as a kernel call on the
  // pre-normalized window, bit for bit, on every tier.
  Rng rng(16);
  for (size_t n : {5u, 64u, 203u}) {
    const auto s = RandomSeries(n, &rng);
    const auto q = ZNormalize(RandomSeries(n, &rng));
    const Envelope env = BuildEnvelope(q, 4);
    const MeanStd ms = ComputeMeanStd(s);
    const double inv = 1.0 / ms.std;
    for (const simd::Kernels* ker : KernelTiers()) {
      SCOPED_TRACE(TierAndLength(*ker, n));
      std::vector<double> pre(n), lazy(n), cb_pre(n), cb_lazy(n);
      ker->znormalize(s.data(), n, ms.mean, inv, pre.data());
      const double want = KernelKeogh(*ker, pre, env, cb_pre.data());
      const double got =
          ker->lb_keogh(s.data(), env.lower.data(), env.upper.data(), n,
                        ms.mean, inv, kInf, cb_lazy.data(), lazy.data());
      EXPECT_EQ(got, want);
      EXPECT_EQ(lazy, pre);
      EXPECT_EQ(cb_lazy, cb_pre);
    }
  }
}

TEST(LowerBoundTest, LbKimNormalizesEndPointsOnTheFly) {
  Rng rng(17);
  for (size_t m : {1u, 2u, 3u, 4u, 5u, 64u}) {
    for (int t = 0; t < 20; ++t) {
      const auto s = RandomSeries(m, &rng);
      const auto q = RandomSeries(m, &rng);
      const double mean = rng.Uniform(-1, 1), inv = rng.Uniform(0, 2);
      std::vector<double> s_hat(m);
      simd::ScalarKernels().znormalize(s.data(), m, mean, inv, s_hat.data());
      EXPECT_EQ(LbKimSquared(s.data(), mean, inv, q),
                LbKimSquared(s_hat.data(), 0.0, 1.0, q))
          << "m=" << m;
      // Short queries take the end-point-only branch; it must still be a
      // bound, including m = 1 where both end points are one cell.
      const double dtw = DtwDistance(s_hat, q, 1);
      EXPECT_LE(LbKimSquared(s_hat.data(), 0.0, 1.0, q),
                dtw * dtw * (1 + 1e-12))
          << "m=" << m;
    }
  }
}

TEST(LowerBoundTest, LbKimUsesEndpoints) {
  std::vector<double> s = {5.0, 0, 0, 0, 0, 0, 0, 3.0};
  std::vector<double> q(8, 0.0);
  EXPECT_GE(LbKimSquared(s.data(), 0.0, 1.0, q), 25.0 + 9.0 - 1e-9);
}

}  // namespace
}  // namespace kvmatch
