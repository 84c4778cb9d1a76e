// Scalar reference tier.
//
// Implements the canonical 8-lane algorithm described in kernels.h so the
// AVX2 tier can match it bitwise. The explicit lane arrays and the fixed
// reduction tree are load-bearing: do not "simplify" them into a single
// running sum, and keep this TU compiled with -ffp-contract=off and
// auto-vectorization off (see CMakeLists.txt) so it stays an honest scalar
// baseline with unfused arithmetic.
#include "distance/simd/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace kvmatch::simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ((a0+a4) + (a2+a6)) + ((a1+a5) + (a3+a7)) — mirrors the AVX2 sequence
//: accA+accB lane-wise, then 128-bit half add, then final pair add.
inline double Reduce8(const double* acc) {
  const double v0 = acc[0] + acc[4];
  const double v1 = acc[1] + acc[5];
  const double v2 = acc[2] + acc[6];
  const double v3 = acc[3] + acc[7];
  return (v0 + v2) + (v1 + v3);
}

double SquaredEdScalar(const double* a, const double* b, size_t n,
                       double threshold_sq) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kAbandonBlock);
    for (; i < stop; i += 8) {
      for (size_t j = 0; j < 8; ++j) {
        const double d = a[i + j] - b[i + j];
        acc[j] += d * d;
      }
    }
    sum = Reduce8(acc);
    if (sum > threshold_sq) return kInf;
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
    if (sum > threshold_sq) return kInf;
  }
  return sum;
}

double SquaredEdZnormOrderedScalar(const double* s, const int* order,
                                   const double* q_ordered, size_t n,
                                   double mean, double inv_std,
                                   double threshold_sq) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kOrderedAbandonBlock);
    for (; i < stop; i += 8) {
      for (size_t j = 0; j < 8; ++j) {
        const double x = (s[order[i + j]] - mean) * inv_std;
        const double d = x - q_ordered[i + j];
        acc[j] += d * d;
      }
    }
    sum = Reduce8(acc);
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

double L1Scalar(const double* a, const double* b, size_t n, double threshold) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kAbandonBlock);
    for (; i < stop; i += 8) {
      for (size_t j = 0; j < 8; ++j) {
        acc[j] += std::fabs(a[i + j] - b[i + j]);
      }
    }
    sum = Reduce8(acc);
    if (sum > threshold) return kInf;
  }
  for (; i < n; ++i) {
    sum += std::fabs(a[i] - b[i]);
    if (sum > threshold) return kInf;
  }
  return sum;
}

// Clamp semantics chosen to be expressible as maxpd(x, +0.0): NaN and -0.0
// inputs both clamp to +0.0 in either tier.
double LbKeoghScalar(const double* s, const double* lower, const double* upper,
                     size_t n, double mean, double inv_std,
                     double threshold_sq, double* cb, double* s_norm) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  double sum = 0.0;
  size_t i = 0;
  const size_t vec_end = n - n % 8;
  while (i < vec_end) {
    const size_t stop = std::min(vec_end, i + kAbandonBlock);
    for (; i < stop; i += 8) {
      for (size_t j = 0; j < 8; ++j) {
        const double x = (s[i + j] - mean) * inv_std;
        const double du = x - upper[i + j];
        const double dl = lower[i + j] - x;
        const double over = du > 0.0 ? du : 0.0;
        const double under = dl > 0.0 ? dl : 0.0;
        const double t = over + under;
        const double d = t * t;
        acc[j] += d;
        if (cb != nullptr) cb[i + j] = d;
        if (s_norm != nullptr) s_norm[i + j] = x;
      }
    }
    sum = Reduce8(acc);
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

void ZNormalizeScalar(const double* s, size_t n, double mean, double inv_std,
                      double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = (s[i] - mean) * inv_std;
}

void RollingMeanStdScalar(const double* prefix_sum, const double* prefix_sq,
                          size_t count, size_t m, double* means,
                          double* stds) {
  const double dm = static_cast<double>(m);
  for (size_t k = 0; k < count; ++k) {
    const double mean = (prefix_sum[k + m] - prefix_sum[k]) / dm;
    const double mean_sq = (prefix_sq[k + m] - prefix_sq[k]) / dm;
    const double var = mean_sq - mean * mean;
    means[k] = mean;
    stds[k] = std::sqrt(var > 0.0 ? var : 0.0);
  }
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const Kernels& ScalarKernels() {
  static const Kernels table = {
      Tier::kScalar,           SquaredEdScalar, SquaredEdZnormOrderedScalar,
      L1Scalar,                LbKeoghScalar,   ZNormalizeScalar,
      RollingMeanStdScalar,
  };
  return table;
}

}  // namespace kvmatch::simd
