#include "ts/stats_oracle.h"

#include <algorithm>
#include <cmath>

namespace kvmatch {

PrefixStats::PrefixStats(std::span<const double> values)
    : values_(values), arrays_(std::make_unique<Arrays>()) {}

const PrefixStats::Arrays& PrefixStats::Built() const {
  Arrays& a = *arrays_;
  std::call_once(a.once, [&] {
    const size_t n = values_.size();
    a.sum.assign(n + 1, 0.0);
    a.sq.assign(n + 1, 0.0);
    for (size_t i = 0; i < n; ++i) {
      a.sum[i + 1] = a.sum[i] + values_[i];
      a.sq[i + 1] = a.sq[i] + values_[i] * values_[i];
    }
    a.built.store(true);
  });
  return a;
}

uint64_t PrefixStats::MemoryBytes() const {
  if (!arrays_->built.load()) return 0;
  return 16 * static_cast<uint64_t>(values_.size() + 1);
}

double PrefixStats::WindowMean(size_t offset, size_t len) const {
  if (len == 0) return 0.0;
  const Arrays& a = Built();
  return (a.sum[offset + len] - a.sum[offset]) / static_cast<double>(len);
}

double PrefixStats::WindowStd(size_t offset, size_t len) const {
  return WindowMeanStd(offset, len).std;
}

MeanStd PrefixStats::WindowMeanStd(size_t offset, size_t len) const {
  MeanStd out;
  if (len == 0) return out;
  const Arrays& a = Built();
  const double n = static_cast<double>(len);
  out.mean = (a.sum[offset + len] - a.sum[offset]) / n;
  const double mean_sq = (a.sq[offset + len] - a.sq[offset]) / n;
  out.std = std::sqrt(std::max(0.0, mean_sq - out.mean * out.mean));
  return out;
}

std::vector<double> PrefixStats::SlidingMeans(size_t w) const {
  std::vector<double> out;
  const size_t n = series_length();
  if (w == 0 || n < w) return out;
  const std::vector<double>& sum = Built().sum;
  out.reserve(n - w + 1);
  const double inv = 1.0 / static_cast<double>(w);
  for (size_t i = 0; i + w <= n; ++i) {
    out.push_back((sum[i + w] - sum[i]) * inv);
  }
  return out;
}

}  // namespace kvmatch
