// Scalar-vs-AVX2 parity for the dispatch-tier verify kernels, plus the
// per-candidate cancellation contract.
//
// The kernel layer promises *bitwise* cross-tier determinism (see
// distance/simd/kernels.h): both tiers implement the same canonical 8-lane
// algorithm with a fixed reduction tree, unfused arithmetic and block
// checkpoints. These tests hold it to that — EXPECT_EQ on raw bit
// patterns, not EXPECT_NEAR — across random lengths, unaligned bases,
// IEEE specials, and early-abandon thresholds at every checkpoint. On
// hardware without AVX2 (or under KVMATCH_FORCE_SCALAR) the cross-tier
// suites skip and the scalar-only suites still run.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "distance/dtw.h"
#include "distance/ed.h"
#include "distance/envelope.h"
#include "distance/simd/kernels.h"
#include "match/verifier.h"
#include "ts/stats_oracle.h"
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

/// Bitwise equality: distinguishes +0/-0 and compares NaN payloads, which
/// is exactly the cross-tier determinism the kernel layer promises.
::testing::AssertionResult BitEq(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << ba << ") != " << b << " (0x" << bb
         << ")";
}

const simd::Kernels& Scalar() { return simd::ScalarKernels(); }

/// Null when this machine cannot run the AVX2 tier.
const simd::Kernels* Avx2() { return simd::Avx2KernelsOrNull(); }

#define SKIP_WITHOUT_AVX2()                                         \
  do {                                                              \
    if (Avx2() == nullptr) {                                        \
      GTEST_SKIP() << "AVX2 tier unavailable on this machine";      \
    }                                                               \
  } while (0)

// Lengths that cover the unroll edge cases: below one lane group, exact
// multiples of 8, straddling the 64-element checkpoint, and a large prime.
const size_t kLengths[] = {1,  2,  7,  8,  9,   15,  16,  63,   64,
                           65, 96, 127, 128, 511, 512, 1023, 4097};

TEST(SimdParityTest, SquaredEdRandomLengths) {
  SKIP_WITHOUT_AVX2();
  Rng rng(11);
  for (size_t n : kLengths) {
    const auto a = RandomSeries(n, &rng);
    const auto b = RandomSeries(n, &rng);
    EXPECT_TRUE(BitEq(Scalar().squared_ed(a.data(), b.data(), n, kInf),
                      Avx2()->squared_ed(a.data(), b.data(), n, kInf)))
        << "n=" << n;
  }
}

TEST(SimdParityTest, SquaredEdUnalignedBases) {
  SKIP_WITHOUT_AVX2();
  Rng rng(12);
  const size_t n = 257;
  const auto a = RandomSeries(n + 8, &rng);
  const auto b = RandomSeries(n + 8, &rng);
  for (size_t off = 0; off < 8; ++off) {
    EXPECT_TRUE(
        BitEq(Scalar().squared_ed(a.data() + off, b.data() + off, n, kInf),
              Avx2()->squared_ed(a.data() + off, b.data() + off, n, kInf)))
        << "offset=" << off;
  }
}

TEST(SimdParityTest, SquaredEdAbandonAtEveryCheckpoint) {
  SKIP_WITHOUT_AVX2();
  Rng rng(13);
  const size_t n = 333;  // several checkpoints plus a ragged tail
  const auto a = RandomSeries(n, &rng);
  const auto b = RandomSeries(n, &rng);
  const double total = Scalar().squared_ed(a.data(), b.data(), n, kInf);
  // Thresholds swept across the whole accumulation range, including exact
  // partial sums (abandon-boundary hits) and their ulp neighbours.
  std::vector<double> thresholds = {0.0, total, std::nextafter(total, 0.0)};
  for (int i = 1; i <= 40; ++i) {
    const double t = total * (static_cast<double>(i) / 40.0);
    thresholds.push_back(t);
    thresholds.push_back(std::nextafter(t, 0.0));
    thresholds.push_back(std::nextafter(t, kInf));
  }
  for (double thr : thresholds) {
    const double ds = Scalar().squared_ed(a.data(), b.data(), n, thr);
    const double dv = Avx2()->squared_ed(a.data(), b.data(), n, thr);
    EXPECT_TRUE(BitEq(ds, dv)) << "threshold=" << thr;
  }
}

TEST(SimdParityTest, SquaredEdSpecialValues) {
  SKIP_WITHOUT_AVX2();
  Rng rng(14);
  for (size_t n : {16u, 67u, 250u}) {
    auto a = RandomSeries(n, &rng);
    auto b = RandomSeries(n, &rng);
    a[n / 3] = 0.0;
    b[n / 3] = -0.0;
    a[n / 2] = 4.9406564584124654e-324;   // smallest denormal
    b[n / 2] = -2.2250738585072014e-308;  // -DBL_MIN
    a[n - 1] = std::numeric_limits<double>::quiet_NaN();
    const double ds = Scalar().squared_ed(a.data(), b.data(), n, kInf);
    const double dv = Avx2()->squared_ed(a.data(), b.data(), n, kInf);
    EXPECT_TRUE(std::isnan(ds)) << "NaN must propagate, n=" << n;
    EXPECT_TRUE(BitEq(ds, dv)) << "n=" << n;
    // A NaN running sum never compares greater than a threshold, so both
    // tiers must also agree under a finite threshold.
    EXPECT_TRUE(BitEq(Scalar().squared_ed(a.data(), b.data(), n, 1.0),
                      Avx2()->squared_ed(a.data(), b.data(), n, 1.0)));
  }
}

TEST(SimdParityTest, ReorderedZnormEd) {
  SKIP_WITHOUT_AVX2();
  Rng rng(15);
  for (size_t n : kLengths) {
    const auto s = RandomSeries(n, &rng);
    const auto q = RandomSeries(n, &rng);
    const auto order = SortedAbsOrder(q);
    std::vector<double> q_ordered(n);
    for (size_t i = 0; i < n; ++i) {
      q_ordered[i] = q[static_cast<size_t>(order[i])];
    }
    const double mean = 0.25, inv_std = 1.75;
    const double total = Scalar().squared_ed_znorm_ordered(
        s.data(), order.data(), q_ordered.data(), n, mean, inv_std, kInf);
    for (double thr : {kInf, total, total * 0.5, total * 0.03125}) {
      EXPECT_TRUE(BitEq(
          Scalar().squared_ed_znorm_ordered(s.data(), order.data(),
                                            q_ordered.data(), n, mean,
                                            inv_std, thr),
          Avx2()->squared_ed_znorm_ordered(s.data(), order.data(),
                                           q_ordered.data(), n, mean,
                                           inv_std, thr)))
          << "n=" << n << " thr=" << thr;
    }
  }
}

TEST(SimdParityTest, L1) {
  SKIP_WITHOUT_AVX2();
  Rng rng(16);
  for (size_t n : kLengths) {
    auto a = RandomSeries(n, &rng);
    const auto b = RandomSeries(n, &rng);
    if (n > 4) a[n / 4] = -0.0;
    const double total = Scalar().l1(a.data(), b.data(), n, kInf);
    for (double thr : {kInf, total, total * 0.5}) {
      EXPECT_TRUE(BitEq(Scalar().l1(a.data(), b.data(), n, thr),
                        Avx2()->l1(a.data(), b.data(), n, thr)))
          << "n=" << n << " thr=" << thr;
    }
  }
}

TEST(SimdParityTest, LbKeoghWithAndWithoutCb) {
  SKIP_WITHOUT_AVX2();
  Rng rng(17);
  for (size_t n : kLengths) {
    const auto s = RandomSeries(n, &rng);
    const auto q = RandomSeries(n, &rng);
    const Envelope env = BuildEnvelope(q, n / 10);
    const double total = Scalar().lb_keogh(s.data(), env.lower.data(),
                                           env.upper.data(), n, 0.0, 1.0,
                                           kInf, nullptr, nullptr);
    // The kernel abandons at checkpoints whether or not cb / s_norm are
    // requested: the value must agree bit for bit, and so must every
    // output entry written before the abandoning checkpoint. Entries past
    // it keep their sentinel in both tiers, so whole arrays compare.
    for (double thr : {kInf, total, total * 0.5, total * 0.1}) {
      for (const auto& [mean, inv] :
           {std::pair{0.0, 1.0}, std::pair{0.3, 0.8}, std::pair{1.5, 0.0}}) {
        std::vector<double> cb_s(n, -1.0), cb_v(n, -1.0);
        std::vector<double> x_s(n, -1.0), x_v(n, -1.0);
        const double ls = Scalar().lb_keogh(s.data(), env.lower.data(),
                                            env.upper.data(), n, mean, inv,
                                            thr, cb_s.data(), x_s.data());
        const double lv = Avx2()->lb_keogh(s.data(), env.lower.data(),
                                           env.upper.data(), n, mean, inv,
                                           thr, cb_v.data(), x_v.data());
        EXPECT_TRUE(BitEq(ls, lv)) << "n=" << n << " thr=" << thr;
        EXPECT_TRUE(BitEq(ls, Avx2()->lb_keogh(s.data(), env.lower.data(),
                                               env.upper.data(), n, mean,
                                               inv, thr, nullptr, nullptr)))
            << "n=" << n << " thr=" << thr;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(BitEq(cb_s[i], cb_v[i]))
              << "n=" << n << " thr=" << thr << " i=" << i;
          ASSERT_TRUE(BitEq(x_s[i], x_v[i]))
              << "n=" << n << " thr=" << thr << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdParityTest, Znormalize) {
  SKIP_WITHOUT_AVX2();
  Rng rng(18);
  for (size_t n : kLengths) {
    const auto s = RandomSeries(n, &rng);
    std::vector<double> out_s(n), out_v(n);
    Scalar().znormalize(s.data(), n, 1.5, 0.7, out_s.data());
    Avx2()->znormalize(s.data(), n, 1.5, 0.7, out_v.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEq(out_s[i], out_v[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdParityTest, RollingMeanStdMatchesPrefixStatsBitwise) {
  SKIP_WITHOUT_AVX2();
  Rng rng(19);
  const size_t n = 3000, m = 128;
  const auto xs = RandomSeries(n, &rng);
  const PrefixStats ps{std::span<const double>(xs)};
  const size_t count = n - m + 1;
  std::vector<double> mean_s(count), std_s(count), mean_v(count),
      std_v(count);
  Scalar().rolling_mean_std(ps.prefix_sums().data(),
                            ps.prefix_squares().data(), count, m,
                            mean_s.data(), std_s.data());
  Avx2()->rolling_mean_std(ps.prefix_sums().data(),
                           ps.prefix_squares().data(), count, m,
                           mean_v.data(), std_v.data());
  for (size_t k = 0; k < count; ++k) {
    const MeanStd ref = ps.WindowMeanStd(k, m);
    ASSERT_TRUE(BitEq(mean_s[k], ref.mean)) << "k=" << k;
    ASSERT_TRUE(BitEq(std_s[k], ref.std)) << "k=" << k;
    ASSERT_TRUE(BitEq(mean_v[k], ref.mean)) << "k=" << k;
    ASSERT_TRUE(BitEq(std_v[k], ref.std)) << "k=" << k;
  }
}

// ---- Dispatch plumbing ----

TEST(SimdDispatchTest, ForceScalarEnvParsing) {
  EXPECT_FALSE(simd::ForceScalarValue(nullptr));
  EXPECT_FALSE(simd::ForceScalarValue(""));
  EXPECT_FALSE(simd::ForceScalarValue("0"));
  EXPECT_FALSE(simd::ForceScalarValue("false"));
  EXPECT_FALSE(simd::ForceScalarValue("off"));
  EXPECT_FALSE(simd::ForceScalarValue("no"));
  EXPECT_TRUE(simd::ForceScalarValue("1"));
  EXPECT_TRUE(simd::ForceScalarValue("true"));
  EXPECT_TRUE(simd::ForceScalarValue("yes"));
}

TEST(SimdDispatchTest, ForcedScalarRoundTrip) {
  EXPECT_EQ(simd::Dispatch(true).tier, simd::Tier::kScalar);
  if (Avx2() != nullptr) {
    EXPECT_EQ(simd::Dispatch(false).tier, simd::Tier::kAvx2);
  } else {
    EXPECT_EQ(simd::Dispatch(false).tier, simd::Tier::kScalar);
  }
  // The process-wide table honours the environment override (this is the
  // assertion the KVMATCH_FORCE_SCALAR=1 CI leg flips).
  if (simd::ForceScalarValue(std::getenv("KVMATCH_FORCE_SCALAR"))) {
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  } else {
    EXPECT_EQ(&simd::ActiveKernels(), &simd::Dispatch(false));
  }
}

TEST(SimdDispatchTest, TierNames) {
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
}

TEST(SimdDispatchTest, AlignedBufferAlignment) {
  simd::AlignedBuffer buf;
  for (size_t n : {1u, 17u, 1000u}) {
    double* p = buf.Resize(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    p[0] = 1.0;
    p[n - 1] = 2.0;  // touch both ends under ASan
  }
}

// ---- Verifier-level parity: identical matches AND identical counters ----

struct VerifierFixture {
  TimeSeries series;
  PrefixStats prefix;
  std::vector<double> q;
  IntervalList cs;

  explicit VerifierFixture(size_t n = 20'000, size_t m = 128) {
    Rng rng(23);
    std::vector<double> xs(n);
    double v = 0.0;
    for (auto& x : xs) {
      v += rng.Uniform(-0.5, 0.5);
      x = v;
    }
    series = TimeSeries(std::move(xs));
    prefix = PrefixStats(series);
    const size_t at = n / 3;
    q.assign(series.values().begin() + at, series.values().begin() + at + m);
    for (auto& x : q) x += rng.Uniform(-0.05, 0.05);
    cs.AppendInterval({0, static_cast<int64_t>(n - m)});
  }
};

QueryParams ParamsFor(QueryType type, size_t m) {
  QueryParams p;
  p.type = type;
  p.rho = m / 16;
  switch (type) {
    case QueryType::kRsmEd:
      p.epsilon = 3.0;
      break;
    case QueryType::kRsmDtw:
      p.epsilon = 2.5;
      break;
    case QueryType::kCnsmEd:
      p.epsilon = 4.0;
      p.alpha = 1.5;
      p.beta = 2.0;
      break;
    case QueryType::kCnsmDtw:
      p.epsilon = 3.5;
      p.alpha = 1.5;
      p.beta = 2.0;
      break;
    case QueryType::kRsmL1:
      p.epsilon = 20.0;
      break;
  }
  return p;
}

TEST(SimdVerifierParityTest, AllQueryTypesIdenticalAcrossTiers) {
  SKIP_WITHOUT_AVX2();
  const VerifierFixture f;
  const Verifier verifier(f.series, f.prefix);
  for (QueryType type :
       {QueryType::kRsmEd, QueryType::kRsmDtw, QueryType::kCnsmEd,
        QueryType::kCnsmDtw, QueryType::kRsmL1}) {
    const QueryParams params = ParamsFor(type, f.q.size());
    for (size_t block : {1u, 7u, 512u}) {
      VerifyOptions scalar_opts, avx2_opts;
      scalar_opts.kernels = &Scalar();
      scalar_opts.block_candidates = block;
      avx2_opts.kernels = Avx2();
      avx2_opts.block_candidates = block;
      MatchStats stats_s, stats_v;
      const auto rs = verifier.Verify(f.q, params, f.cs, &stats_s,
                                      scalar_opts);
      const auto rv = verifier.Verify(f.q, params, f.cs, &stats_v, avx2_opts);
      ASSERT_EQ(rs.size(), rv.size())
          << "type=" << static_cast<int>(type) << " block=" << block;
      for (size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].offset, rv[i].offset);
        EXPECT_TRUE(BitEq(rs[i].distance, rv[i].distance));
      }
      // Bit-identical accept/reject implies bit-identical prune counters.
      EXPECT_EQ(stats_s.distance_calls, stats_v.distance_calls);
      EXPECT_EQ(stats_s.lb_pruned, stats_v.lb_pruned);
      EXPECT_EQ(stats_s.constraint_pruned, stats_v.constraint_pruned);
      EXPECT_FALSE(rs.empty())
          << "fixture should produce at least the planted match";
    }
  }
}

TEST(SimdVerifierParityTest, BlockSizeInvariant) {
  // Blocking is a layout decision; the result must not depend on it.
  const VerifierFixture f;
  const Verifier verifier(f.series, f.prefix);
  const QueryParams params = ParamsFor(QueryType::kCnsmEd, f.q.size());
  VerifyOptions base;
  base.block_candidates = 512;
  MatchStats stats_base;
  const auto expect = verifier.Verify(f.q, params, f.cs, &stats_base, base);
  for (size_t block : {1u, 3u, 64u, 100'000u}) {
    VerifyOptions opts;
    opts.block_candidates = block;
    MatchStats stats;
    const auto got = verifier.Verify(f.q, params, f.cs, &stats, opts);
    ASSERT_EQ(got.size(), expect.size()) << "block=" << block;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, expect[i].offset);
      EXPECT_TRUE(BitEq(got[i].distance, expect[i].distance));
    }
    EXPECT_EQ(stats.distance_calls, stats_base.distance_calls);
  }
}

// ---- Per-candidate cancellation ----

TEST(MidCandidateCancelTest, DtwDistanceObservesPreCancelledToken) {
  // A token cancelled before the DP starts aborts within the first
  // kDtwCancelRows rows — microseconds, even for a pathological band.
  Rng rng(29);
  const size_t m = 16'384;
  const auto a = RandomSeries(m, &rng);
  const auto b = RandomSeries(m, &rng);
  CancelToken token;
  token.Cancel();
  const auto t0 = std::chrono::steady_clock::now();
  const double d = DtwDistance(a, b, /*rho=*/4096, kInf, {}, &token);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(d, kInf);
  // ~134M band cells would take seconds; the bail-out is bounded by one
  // cancel-check stride (16 rows ≈ 131k cells).
  EXPECT_LT(ms, 500.0);
}

TEST(MidCandidateCancelTest, VerifierAbortsInsideExpensiveDtwCandidate) {
  // One slice whose candidates each run a pathologically expensive banded
  // DTW (lower bounds disabled, ε huge so nothing abandons). A cancel
  // landing mid-slice must surface within a bounded number of row
  // operations — NOT after the slice finishes — with the partial stats of
  // the candidates that did complete.
  Rng rng(31);
  const size_t m = 4096;
  const size_t n = m + 64;
  const auto xs = RandomSeries(n, &rng);
  const TimeSeries series{std::vector<double>(xs)};
  const PrefixStats prefix(series);
  const Verifier verifier(series, prefix);
  const std::vector<double> q = RandomSeries(m, &rng);

  QueryParams params;
  params.type = QueryType::kRsmDtw;
  params.rho = 1024;         // ~8.4M band cells per candidate
  params.epsilon = 1e9;      // nothing abandons: full DP every time
  VerifyOptions options;
  options.use_lb_kim = false;
  options.use_lb_keogh = false;

  IntervalList cs;
  cs.AppendInterval({0, static_cast<int64_t>(n - m)});  // 65 candidates

  CancelToken token;
  ExecContext ctx;
  ctx.cancel = &token;

  std::vector<MatchResult> results;
  MatchStats stats;
  Status st = Status::OK();
  std::thread worker([&] {
    st = verifier.VerifyCancellable(q, params, cs, ctx, &results, &stats,
                                    options);
  });
  // Land the cancel mid-verify: one candidate costs tens of ms, the whole
  // slice seconds. 30ms is deep inside the first few candidates.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto cancel_t0 = std::chrono::steady_clock::now();
  token.Cancel();
  worker.join();
  const double react_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - cancel_t0)
                              .count();

  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  // Bounded reaction: at most ~one kDtwCancelRows stride plus scheduling
  // noise — far less than even a single candidate's full DP.
  EXPECT_LT(react_ms, 1'000.0);
  // Partial stats intact: whatever completed before the cancel is
  // reported, and never more than the full candidate set.
  EXPECT_LE(stats.distance_calls, 65u);
  EXPECT_EQ(stats.lb_pruned, 0u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[i - 1].offset, results[i].offset);
  }
}

TEST(MidCandidateCancelTest, PreCancelledContextReportsNoWork) {
  const VerifierFixture f;
  const Verifier verifier(f.series, f.prefix);
  const QueryParams params = ParamsFor(QueryType::kRsmEd, f.q.size());
  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  std::vector<MatchResult> results;
  MatchStats stats;
  const Status st =
      verifier.VerifyCancellable(f.q, params, f.cs, ctx, &results, &stats);
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.distance_calls, 0u);
}

}  // namespace
}  // namespace kvmatch
