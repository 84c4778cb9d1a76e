// The server's STATS answer (its Prometheus-style text dump) as numbers:
// one value per series line, and each histogram back in the
// LatencyHistogram::Snapshot it was printed from, so that two dumps can be
// subtracted (the timed phase) or added (several shards).
#ifndef KVBENCH_STATS_TEXT_H_
#define KVBENCH_STATS_TEXT_H_

#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "common/histogram.h"

namespace kvbench {

using kvmatch::LatencyHistogram;

class StatsText {
 public:
  static StatsText Parse(const std::string& text) {
    StatsText out;
    std::istringstream in(text);
    std::string line;
    // Cumulative bucket counts become per-bucket counts, keyed by the
    // histogram's base name.
    std::map<std::string, uint64_t> last_cum;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t space = line.rfind(' ');
      if (space == std::string::npos) continue;
      const std::string key = line.substr(0, space);
      const double value = std::strtod(line.c_str() + space + 1, nullptr);
      const size_t bucket = key.find("_bucket{le=\"");
      if (bucket == std::string::npos) {
        out.values_[key] += value;
        continue;
      }
      const std::string base = key.substr(0, bucket);
      const std::string le = key.substr(bucket + 12, key.size() - bucket - 14);
      // The bounds are printed to six significant digits; a bound read a
      // hair above the true one must not land in the next bucket.
      const size_t i =
          le == "+Inf" ? LatencyHistogram::kNumBuckets - 1
                       : LatencyHistogram::BucketIndex(
                             std::strtod(le.c_str(), nullptr) * (1.0 - 1e-5));
      const auto cum = static_cast<uint64_t>(value);
      LatencyHistogram::Snapshot& h = out.histograms_[base];
      h.counts[i] += cum - last_cum[base];
      h.total = cum;
      last_cum[base] = cum;
    }
    return out;
  }

  /// NaN when the dump has no such line, so a renamed metric shows up as
  /// a non-finite result instead of a silent zero.
  double Get(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::numeric_limits<double>::quiet_NaN()
                               : it->second;
  }

  /// Percentile q in [0, 1] of a histogram; NaN when it is empty. The dump
  /// carries no exact extrema, so a percentile in the +Inf bucket reads as
  /// infinite.
  double Percentile(const std::string& base, double q) const {
    auto it = histograms_.find(base);
    if (it == histograms_.end() || it->second.total == 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    LatencyHistogram::Snapshot h = it->second;
    h.min_ms = 0.0;
    h.max_ms = std::numeric_limits<double>::infinity();
    return h.Percentile(q);
  }

  /// Elementwise sum (several shard processes).
  void Add(const StatsText& o) {
    for (const auto& [k, v] : o.values_) values_[k] += v;
    for (const auto& [base, h] : o.histograms_) {
      LatencyHistogram::Snapshot& mine = histograms_[base];
      for (size_t i = 0; i < h.counts.size(); ++i) mine.counts[i] += h.counts[i];
      mine.total += h.total;
    }
  }

  /// Elementwise difference: counters and histograms accumulated between
  /// `before` and this dump. Gauges are meaningless in a delta.
  StatsText Minus(const StatsText& before) const {
    StatsText out = *this;
    for (const auto& [k, v] : before.values_) out.values_[k] -= v;
    for (const auto& [base, h] : before.histograms_) {
      LatencyHistogram::Snapshot& mine = out.histograms_[base];
      for (size_t i = 0; i < h.counts.size(); ++i) mine.counts[i] -= h.counts[i];
      mine.total -= h.total;
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, LatencyHistogram::Snapshot> histograms_;
};

}  // namespace kvbench

#endif  // KVBENCH_STATS_TEXT_H_
