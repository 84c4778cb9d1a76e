// Runtime-dispatched SIMD kernels for the phase-2 verify hot path.
//
// Every distance-like loop the verifier runs per candidate — squared ED
// with early abandoning, the UCR reordered z-normalized ED, L1, the
// LB_Keogh envelope clamp-and-accumulate, z-normalization and batch
// rolling mean/std — is exposed here as a function-pointer table with two
// implementations: a portable scalar tier and an AVX2 tier (compiled only
// on x86-64, selected only when the CPU reports AVX2 at runtime).
//
// Determinism contract — the reason parity tests can demand *bitwise*
// equality between tiers: both tiers implement the SAME canonical
// algorithm, not merely the same math.
//
//   * Accumulation runs in 8 independent lanes (two 4-wide vectors on
//     AVX2, an 8-element array in the scalar tier); element i feeds lane
//     i % 8. No fused multiply-add anywhere (both TUs are built with
//     -ffp-contract=off), so each lane performs the identical unfused
//     mul-then-add sequence.
//   * Lane reduction order is fixed: with lanes a0..a7,
//       sum = ((a0+a4) + (a2+a6)) + ((a1+a5) + (a3+a7)).
//   * Early-abandon checks happen at block checkpoints (every
//     kAbandonBlock elements, after a full lane reduction), never
//     per-element inside the vectorized body. The trailing n % 8 elements
//     run sequentially with per-element checks in both tiers.
//
// Under this contract the two tiers return bit-identical doubles for
// identical inputs, so accept/reject decisions (d² ≤ ε² etc.) can never
// diverge across dispatch tiers.
#ifndef KVMATCH_DISTANCE_SIMD_KERNELS_H_
#define KVMATCH_DISTANCE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace kvmatch::simd {

/// Early-abandon checkpoint interval (elements) for the ED/L1/Keogh
/// kernels. Must be a multiple of the 8-lane unroll.
inline constexpr size_t kAbandonBlock = 64;

/// Checkpoint interval for the gather-heavy reordered-ED kernel: reordered
/// visitation abandons much earlier on average, so check more often.
inline constexpr size_t kOrderedAbandonBlock = 32;

enum class Tier {
  kScalar,
  kAvx2,
};

const char* TierName(Tier tier);

/// The kernel table. All pointers are non-null in any table returned by
/// this header's accessors.
struct Kernels {
  Tier tier = Tier::kScalar;

  /// Squared ED between a[0..n) and b[0..n), early-abandoning (returns
  /// +inf) once the running sum exceeds `threshold_sq` at a checkpoint.
  double (*squared_ed)(const double* a, const double* b, size_t n,
                       double threshold_sq);

  /// UCR reordered early-abandon ED. Visits candidate points through
  /// `order` (s[order[i]]), normalizes on the fly with (mean, inv_std),
  /// and compares against `q_ordered` — the normalized query already
  /// permuted by the same order, so only the candidate side gathers.
  double (*squared_ed_znorm_ordered)(const double* s, const int* order,
                                     const double* q_ordered, size_t n,
                                     double mean, double inv_std,
                                     double threshold_sq);

  /// L1 distance with early abandoning at `threshold` (unsquared).
  double (*l1)(const double* a, const double* b, size_t n, double threshold);

  /// LB_Keogh clamp-and-accumulate of x[i] = (s[i] - mean) * inv_std
  /// against [lower, upper]; mean = 0, inv_std = 1 compares s itself
  /// (x - 0 and x * 1 are exact). Normalizing inside the loop lets cNSM
  /// candidates skip a separate full-window z-normalization: only the
  /// points visited before an abandon are ever normalized.
  ///
  /// Abandons (+inf) at the usual checkpoints once the running sum
  /// exceeds threshold_sq, whether or not the optional outputs are given.
  /// When non-null, `cb` receives the per-position squared contributions
  /// and `s_norm` the normalized points x[i], each up to the abandoning
  /// checkpoint (complete when the call returns a finite value). Callers
  /// that need every entry regardless pass threshold_sq = +inf.
  double (*lb_keogh)(const double* s, const double* lower, const double* upper,
                     size_t n, double mean, double inv_std,
                     double threshold_sq, double* cb, double* s_norm);

  /// out[i] = (s[i] - mean) * inv_std.
  void (*znormalize)(const double* s, size_t n, double mean, double inv_std,
                     double* out);

  /// Batch rolling mean/std for `count` consecutive windows of length `m`:
  /// window k covers prefix entries [k, k+m], i.e. the caller passes the
  /// prefix-sum/prefix-square arrays already offset to the first window.
  /// Uses the same divide-then-sqrt(max(0, E[x²]-E[x]²)) formula as
  /// PrefixStats::WindowMeanStd, elementwise, so results match it bitwise.
  void (*rolling_mean_std)(const double* prefix_sum, const double* prefix_sq,
                           size_t count, size_t m, double* means,
                           double* stds);
};

/// The portable reference tier (always available).
const Kernels& ScalarKernels();

/// The AVX2 tier, or null when the binary lacks the TU (non-x86 build) or
/// the CPU lacks AVX2. Defined in kernels_avx2.cc when compiled in,
/// otherwise by a stub in dispatch.cc.
const Kernels* Avx2KernelsOrNull();

/// True for any set, non-falsy value ("", "0", "false", "off", "no" are
/// falsy). Exposed so tests can exercise the env parsing directly.
bool ForceScalarValue(const char* value);

/// Pure selection: the best available tier, or scalar when forced.
const Kernels& Dispatch(bool force_scalar);

/// Process-wide active table: dispatched once, honoring the
/// KVMATCH_FORCE_SCALAR environment variable.
const Kernels& ActiveKernels();
inline Tier ActiveTier() { return ActiveKernels().tier; }

/// 64-byte-aligned growable double buffer for cache-blocked candidate
/// gathering (cacheline- and AVX-512-friendly; AVX2 loads are unaligned-
/// tolerant but aligned bases keep them on one line).
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { std::free(data_); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        capacity_(std::exchange(o.capacity_, 0)) {}

  /// Grows (never shrinks) to hold at least n doubles; contents are not
  /// preserved. Returns the 64-byte-aligned base.
  double* Resize(size_t n) {
    if (n > capacity_) {
      std::free(data_);
      // aligned_alloc requires size to be a multiple of the alignment.
      size_t bytes = n * sizeof(double);
      bytes = (bytes + 63) & ~size_t{63};
      data_ = static_cast<double*>(std::aligned_alloc(64, bytes));
      if (data_ == nullptr) throw std::bad_alloc();
      capacity_ = n;
    }
    return data_;
  }

  double* data() { return data_; }

 private:
  double* data_ = nullptr;
  size_t capacity_ = 0;
};

}  // namespace kvmatch::simd

#endif  // KVMATCH_DISTANCE_SIMD_KERNELS_H_
