#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace kvmatch {

double LatencyHistogram::BucketUpperBoundMs(size_t i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return kFirstUpperMs *
         std::pow(2.0, static_cast<double>(i) /
                           static_cast<double>(kBucketsPerOctave));
}

size_t LatencyHistogram::BucketIndex(double ms) {
  if (!(ms > kFirstUpperMs)) return 0;  // also catches NaN and negatives
  // Smallest i with upper(i) >= ms, i.e. ceil(log2(ms / first) * per_octave).
  const double octaves = std::log2(ms / kFirstUpperMs);
  double idx = std::ceil(octaves * static_cast<double>(kBucketsPerOctave));
  // log2/ceil rounding can land one bucket off in either direction when
  // ms sits exactly on a boundary; nudge so that bucket i holds exactly
  // the values in (upper(i-1), upper(i)] — the Prometheus `le` contract.
  size_t i = idx < 0 ? 0 : static_cast<size_t>(idx);
  if (i < kNumBuckets - 1 && BucketUpperBoundMs(i) < ms) ++i;
  if (i > 0 && BucketUpperBoundMs(i - 1) >= ms) --i;
  return std::min(i, kNumBuckets - 1);
}

LatencyHistogram::LatencyHistogram()
    : min_bits_(std::bit_cast<uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<uint64_t>(
          -std::numeric_limits<double>::infinity())) {}

size_t LatencyHistogram::StripeIndex() noexcept {
  static std::atomic<size_t> next{0};
  thread_local size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

void LatencyHistogram::Record(double ms) noexcept {
  if (std::isnan(ms)) return;
  if (ms < 0.0) ms = 0.0;
  Stripe& s = stripes_[StripeIndex()];
  s.counts[BucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
  s.sum_ns.fetch_add(static_cast<uint64_t>(ms * 1e6),
                     std::memory_order_relaxed);

  uint64_t cur = min_bits_.load(std::memory_order_relaxed);
  while (ms < std::bit_cast<double>(cur) &&
         !min_bits_.compare_exchange_weak(cur, std::bit_cast<uint64_t>(ms),
                                          std::memory_order_relaxed)) {
  }
  cur = max_bits_.load(std::memory_order_relaxed);
  while (ms > std::bit_cast<double>(cur) &&
         !max_bits_.compare_exchange_weak(cur, std::bit_cast<uint64_t>(ms),
                                          std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot snap;
  uint64_t sum_ns = 0;
  for (const Stripe& s : stripes_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      uint64_t c = s.counts[i].load(std::memory_order_relaxed);
      snap.counts[i] += c;
      snap.total += c;
    }
    sum_ns += s.sum_ns.load(std::memory_order_relaxed);
  }
  snap.sum_ms = static_cast<double>(sum_ns) / 1e6;
  if (snap.total > 0) {
    snap.min_ms =
        std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
    snap.max_ms =
        std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
    if (!std::isfinite(snap.min_ms)) snap.min_ms = 0.0;
    if (!std::isfinite(snap.max_ms)) snap.max_ms = 0.0;
  }
  return snap;
}

double LatencyHistogram::Snapshot::Percentile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the percentile sample among `total` sorted values (1-based).
  const double rank = q * static_cast<double>(total - 1) + 1.0;
  uint64_t cum = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    const uint64_t prev = cum;
    cum += counts[i];
    if (static_cast<double>(cum) + 1e-9 < rank) continue;
    // Interpolate linearly between the bucket's bounds by the rank's
    // position among this bucket's samples.
    double lo = i == 0 ? 0.0 : BucketUpperBoundMs(i - 1);
    double hi = BucketUpperBoundMs(i);
    if (!std::isfinite(hi)) hi = max_ms;  // +Inf bucket: cap at observed max
    if (hi < lo) hi = lo;
    const double frac =
        (rank - static_cast<double>(prev)) / static_cast<double>(counts[i]);
    double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    return std::clamp(v, min_ms, max_ms);
  }
  return max_ms;
}

}  // namespace kvmatch
