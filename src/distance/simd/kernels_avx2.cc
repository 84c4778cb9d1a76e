// AVX2 tier: 8-wide unrolled (two 4-double ymm accumulators) versions of
// the verify kernels.
//
// Built with -mavx2 -ffp-contract=off on x86-64 only (see CMakeLists.txt);
// dispatch.cc provides the null stub when this TU is absent. The lane
// layout, reduction tree and checkpoint schedule mirror kernels_scalar.cc
// exactly — see the determinism contract in kernels.h. In particular:
// no FMA intrinsics (unfused mul+add matches the scalar tier bitwise),
// and _mm256_max_pd(x, +0.0) pairs with the scalar `x > 0 ? x : 0` clamp
// (both map NaN and -0.0 to +0.0).
#include "distance/simd/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace kvmatch::simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ((a0+a4) + (a2+a6)) + ((a1+a5) + (a3+a7)), with accA = lanes 0..3 and
// accB = lanes 4..7.
inline double Reduce(__m256d acc_a, __m256d acc_b) {
  const __m256d v = _mm256_add_pd(acc_a, acc_b);
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

double SquaredEdAvx2(const double* a, const double* b, size_t n,
                     double threshold_sq) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kAbandonBlock);
    for (; i < stop; i += 8) {
      const __m256d d0 =
          _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
      const __m256d d1 =
          _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
      acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(d0, d0));
      acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(d1, d1));
    }
    sum = Reduce(acc_a, acc_b);
    if (sum > threshold_sq) return kInf;
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
    if (sum > threshold_sq) return kInf;
  }
  return sum;
}

double SquaredEdZnormOrderedAvx2(const double* s, const int* order,
                                 const double* q_ordered, size_t n,
                                 double mean, double inv_std,
                                 double threshold_sq) {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vinv = _mm256_set1_pd(inv_std);
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kOrderedAbandonBlock);
    for (; i < stop; i += 8) {
      const __m128i idx0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(order + i));
      const __m128i idx1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(order + i + 4));
      const __m256d s0 = _mm256_i32gather_pd(s, idx0, 8);
      const __m256d s1 = _mm256_i32gather_pd(s, idx1, 8);
      const __m256d x0 = _mm256_mul_pd(_mm256_sub_pd(s0, vmean), vinv);
      const __m256d x1 = _mm256_mul_pd(_mm256_sub_pd(s1, vmean), vinv);
      const __m256d d0 = _mm256_sub_pd(x0, _mm256_loadu_pd(q_ordered + i));
      const __m256d d1 = _mm256_sub_pd(x1, _mm256_loadu_pd(q_ordered + i + 4));
      acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(d0, d0));
      acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(d1, d1));
    }
    sum = Reduce(acc_a, acc_b);
    if (sum > threshold_sq) return kInf;
  }
  for (; i < n; ++i) {
    const double x = (s[order[i]] - mean) * inv_std;
    const double d = x - q_ordered[i];
    sum += d * d;
    if (sum > threshold_sq) return kInf;
  }
  return sum;
}

double L1Avx2(const double* a, const double* b, size_t n, double threshold) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kAbandonBlock);
    for (; i < stop; i += 8) {
      const __m256d d0 =
          _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
      const __m256d d1 =
          _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
      acc_a = _mm256_add_pd(acc_a, _mm256_andnot_pd(sign_mask, d0));
      acc_b = _mm256_add_pd(acc_b, _mm256_andnot_pd(sign_mask, d1));
    }
    sum = Reduce(acc_a, acc_b);
    if (sum > threshold) return kInf;
  }
  for (; i < n; ++i) {
    sum += std::fabs(a[i] - b[i]);
    if (sum > threshold) return kInf;
  }
  return sum;
}

double LbKeoghAvx2(const double* s, const double* lower, const double* upper,
                   size_t n, double mean, double inv_std, double threshold_sq,
                   double* cb, double* s_norm) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vinv = _mm256_set1_pd(inv_std);
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kAbandonBlock);
    for (; i < stop; i += 8) {
      const __m256d x0 =
          _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(s + i), vmean), vinv);
      const __m256d x1 = _mm256_mul_pd(
          _mm256_sub_pd(_mm256_loadu_pd(s + i + 4), vmean), vinv);
      const __m256d over0 =
          _mm256_max_pd(_mm256_sub_pd(x0, _mm256_loadu_pd(upper + i)), zero);
      const __m256d over1 = _mm256_max_pd(
          _mm256_sub_pd(x1, _mm256_loadu_pd(upper + i + 4)), zero);
      const __m256d under0 =
          _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(lower + i), x0), zero);
      const __m256d under1 = _mm256_max_pd(
          _mm256_sub_pd(_mm256_loadu_pd(lower + i + 4), x1), zero);
      const __m256d t0 = _mm256_add_pd(over0, under0);
      const __m256d t1 = _mm256_add_pd(over1, under1);
      const __m256d d0 = _mm256_mul_pd(t0, t0);
      const __m256d d1 = _mm256_mul_pd(t1, t1);
      acc_a = _mm256_add_pd(acc_a, d0);
      acc_b = _mm256_add_pd(acc_b, d1);
      if (cb != nullptr) {
        _mm256_storeu_pd(cb + i, d0);
        _mm256_storeu_pd(cb + i + 4, d1);
      }
      if (s_norm != nullptr) {
        _mm256_storeu_pd(s_norm + i, x0);
        _mm256_storeu_pd(s_norm + i + 4, x1);
      }
    }
    sum = Reduce(acc_a, acc_b);
    if (sum > threshold_sq) return kInf;
  }
  for (; i < n; ++i) {
    const double x = (s[i] - mean) * inv_std;
    const double du = x - upper[i];
    const double dl = lower[i] - x;
    const double over = du > 0.0 ? du : 0.0;
    const double under = dl > 0.0 ? dl : 0.0;
    const double t = over + under;
    const double d = t * t;
    sum += d;
    if (cb != nullptr) cb[i] = d;
    if (s_norm != nullptr) s_norm[i] = x;
    if (sum > threshold_sq) return kInf;
  }
  return sum;
}

void ZNormalizeAvx2(const double* s, size_t n, double mean, double inv_std,
                    double* out) {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vinv = _mm256_set1_pd(inv_std);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(s + i), vmean), vinv));
  }
  for (; i < n; ++i) out[i] = (s[i] - mean) * inv_std;
}

void RollingMeanStdAvx2(const double* prefix_sum, const double* prefix_sq,
                        size_t count, size_t m, double* means, double* stds) {
  const double dm = static_cast<double>(m);
  const __m256d vdm = _mm256_set1_pd(dm);
  const __m256d zero = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d mean = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(prefix_sum + k + m),
                      _mm256_loadu_pd(prefix_sum + k)),
        vdm);
    const __m256d mean_sq = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(prefix_sq + k + m),
                      _mm256_loadu_pd(prefix_sq + k)),
        vdm);
    const __m256d var =
        _mm256_max_pd(_mm256_sub_pd(mean_sq, _mm256_mul_pd(mean, mean)), zero);
    _mm256_storeu_pd(means + k, mean);
    _mm256_storeu_pd(stds + k, _mm256_sqrt_pd(var));
  }
  for (; k < count; ++k) {
    const double mean = (prefix_sum[k + m] - prefix_sum[k]) / dm;
    const double mean_sq = (prefix_sq[k + m] - prefix_sq[k]) / dm;
    const double var = mean_sq - mean * mean;
    means[k] = mean;
    stds[k] = std::sqrt(var > 0.0 ? var : 0.0);
  }
}

}  // namespace

const Kernels* Avx2KernelsOrNull() {
  static const Kernels* const selected = []() -> const Kernels* {
    if (!__builtin_cpu_supports("avx2")) return nullptr;
    static const Kernels table = {
        Tier::kAvx2,  SquaredEdAvx2, SquaredEdZnormOrderedAvx2,
        L1Avx2,       LbKeoghAvx2,   ZNormalizeAvx2,
        RollingMeanStdAvx2,
    };
    return &table;
  }();
  return selected;
}

}  // namespace kvmatch::simd

#else  // !defined(__AVX2__)

// The build system only compiles this TU with -mavx2; a stray build without
// it must not silently define a scalar "AVX2" tier.
#error "kernels_avx2.cc requires -mavx2 (gate this TU out in CMake instead)"

#endif
