// Fixed-size log-bucketed latency histogram with a lock-free record path.
//
// Record() classifies a millisecond value into one of kNumBuckets
// geometric buckets (8 per octave: ~9% relative width) and bumps a
// relaxed atomic counter — no mutex, no allocation, so it can sit
// directly on the QueryService's per-request hot path. Counters are
// striped across several cache-line-separated banks to keep concurrent
// recorders from bouncing the same line; a snapshot merges the stripes.
//
// Percentiles (p50/p95/p99) are derived from the bucket counts by rank
// walk with linear interpolation inside the landing bucket, so the
// estimate is always within one bucket width (~9%) of the exact
// sorted-sample percentile. The snapshot also carries everything a
// Prometheus histogram exposition needs (`_bucket` cumulative counts per
// `le` bound, `_sum`, `_count`).
#ifndef KVMATCH_COMMON_HISTOGRAM_H_
#define KVMATCH_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace kvmatch {

class LatencyHistogram {
 public:
  /// Bucket 0 is (-inf, kFirstUpperMs]; bucket i's upper bound grows by
  /// 2^(1/kBucketsPerOctave) per step; the last bucket is the +Inf
  /// catch-all. 200 buckets at 8/octave span 0.01 ms .. ~5 min.
  static constexpr size_t kNumBuckets = 200;
  static constexpr size_t kBucketsPerOctave = 8;
  static constexpr double kFirstUpperMs = 0.01;

  /// Upper bound of bucket `i` in ms (+infinity for the last bucket).
  static double BucketUpperBoundMs(size_t i);
  /// The bucket a value lands in (NaN and negatives land in bucket 0).
  static size_t BucketIndex(double ms);

  /// Merged, point-in-time view of the histogram.
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> counts{};  // per bucket, NOT cumulative
    uint64_t total = 0;
    double sum_ms = 0.0;
    double min_ms = 0.0;  // exact (tracked separately from the buckets)
    double max_ms = 0.0;  // exact

    /// Rank-walk percentile estimate, q in [0, 1]; 0 when empty. Always
    /// inside the bucket holding the exact percentile, clamped to
    /// [min_ms, max_ms].
    double Percentile(double q) const;
    double MeanMs() const {
      return total == 0 ? 0.0 : sum_ms / static_cast<double>(total);
    }
  };

  LatencyHistogram();

  /// Lock-free; safe from any number of threads concurrently.
  void Record(double ms) noexcept;

  Snapshot TakeSnapshot() const;

 private:
  static constexpr size_t kStripes = 8;

  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kNumBuckets> counts{};
    std::atomic<uint64_t> sum_ns{0};  // integer ns: atomic add, no CAS loop
  };

  static size_t StripeIndex() noexcept;

  std::array<Stripe, kStripes> stripes_;
  // Exact extrema via CAS on the doubles' bit patterns (bucket bounds
  // alone would quantize min/max by ~9%).
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

}  // namespace kvmatch

#endif  // KVMATCH_COMMON_HISTOGRAM_H_
