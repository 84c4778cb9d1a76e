// PrefixStats: O(1) mean / std of any subsequence via prefix sums.
//
// Both the KV-index builder (sliding window means, §IV-B) and the cNSM
// verifier (µ_S, σ_S of every candidate, §V) need window statistics; prefix
// sums make each query O(1) after an O(n) build.
//
// The oracle is a view: it holds the values by reference, as the Verifier
// and the matchers hold the series, and builds its two prefix arrays once,
// on the first call that needs them. Only cNSM reads a candidate's µ/σ, so
// a session that serves only RSM queries never pays their 16 bytes per
// point. The build is thread-safe: concurrent first users wait for one
// build and share its arrays.
#ifndef KVMATCH_TS_STATS_ORACLE_H_
#define KVMATCH_TS_STATS_ORACLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ts/time_series.h"

namespace kvmatch {

/// Prefix-sum oracle over a fixed series. The values must outlive the
/// oracle and must not change while it is in use.
class PrefixStats {
 public:
  PrefixStats() : PrefixStats(std::span<const double>()) {}
  explicit PrefixStats(const TimeSeries& series)
      : PrefixStats(std::span<const double>(series.values())) {}
  /// `values` must outlive the oracle: the arrays are built from it on
  /// first use, possibly long after construction. A span of a temporary
  /// vector compiles but dangles; name the vector first.
  explicit PrefixStats(std::span<const double> values);
  /// A view of a temporary series would dangle.
  explicit PrefixStats(TimeSeries&&) = delete;

  size_t series_length() const { return values_.size(); }

  /// Mean of X(offset, len). Requires offset + len <= series_length().
  double WindowMean(size_t offset, size_t len) const;

  /// Population std of X(offset, len).
  double WindowStd(size_t offset, size_t len) const;

  /// Both in one call.
  MeanStd WindowMeanStd(size_t offset, size_t len) const;

  /// Means of all length-`w` sliding windows (n - w + 1 entries).
  std::vector<double> SlidingMeans(size_t w) const;

  /// Raw prefix arrays (n + 1 entries, index 0 is 0.0) for batch kernels:
  /// the SIMD rolling mean/std kernel consumes these directly and
  /// reproduces WindowMeanStd bitwise.
  std::span<const double> prefix_sums() const { return Built().sum; }
  std::span<const double> prefix_squares() const { return Built().sq; }

  /// Bytes held by the prefix arrays: 0 until the first call that builds
  /// them, 16 · (n + 1) after.
  uint64_t MemoryBytes() const;

 private:
  struct Arrays {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::vector<double> sum;  // sum[i] = x_0 + ... + x_{i-1}
    std::vector<double> sq;   // sq[i]  = x_0^2 + ... + x_{i-1}^2
  };

  /// Builds the arrays on first use; every caller sees the same ones.
  const Arrays& Built() const;

  std::span<const double> values_;
  // Behind a pointer so the oracle stays movable (once_flag is not).
  std::unique_ptr<Arrays> arrays_;
};

}  // namespace kvmatch

#endif  // KVMATCH_TS_STATS_ORACLE_H_
