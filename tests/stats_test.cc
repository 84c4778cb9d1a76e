// Unit tests for the observability layer: the log-bucketed
// LatencyHistogram (bucket math, percentile accuracy against exact
// sorted samples, lock-free multi-threaded recording), the
// StatsRegistry's Prometheus exposition (every line must parse, the
// histogram must emit a well-formed cumulative `_bucket` series, and
// per-series ingest volume must be attributed to the right series), and
// the exposition contract of a live `serve` and `coord`: every sample
// belongs to a declared family, each family is typed once and printed in
// one block, no key repeats, and counters never fall between scrapes.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "coord/coord_server.h"
#include "net/client.h"
#include "net/server.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "service/service_stats.h"
#include "storage/file_kvstore.h"
#include "storage/mem_kvstore.h"
#include "storage/minikv.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BucketBoundsAreMonotonicAndConsistent) {
  double prev = 0.0;
  for (size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    const double upper = LatencyHistogram::BucketUpperBoundMs(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    // A value exactly at the bound belongs to this bucket; just above
    // belongs to a later one.
    EXPECT_EQ(LatencyHistogram::BucketIndex(upper), i);
    EXPECT_GT(LatencyHistogram::BucketIndex(upper * 1.0001), i);
    prev = upper;
  }
  EXPECT_TRUE(std::isinf(LatencyHistogram::BucketUpperBoundMs(
      LatencyHistogram::kNumBuckets - 1)));
}

TEST(HistogramTest, DegenerateValuesLandSomewhereSane) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(-5.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(
                std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1e18),
            LatencyHistogram::kNumBuckets - 1);

  LatencyHistogram h;
  h.Record(-1.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());  // dropped
  h.Record(1e18);
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 2u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[LatencyHistogram::kNumBuckets - 1], 1u);
}

TEST(HistogramTest, SnapshotTracksExactExtremaAndMean) {
  LatencyHistogram h;
  const double values[] = {3.0, 0.25, 12.5, 0.25, 7.75};
  double sum = 0.0;
  for (double v : values) {
    h.Record(v);
    sum += v;
  }
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 5u);
  EXPECT_DOUBLE_EQ(snap.min_ms, 0.25);
  EXPECT_DOUBLE_EQ(snap.max_ms, 12.5);
  // sum_ms goes through integer nanoseconds: exact to ~1e-6 ms.
  EXPECT_NEAR(snap.sum_ms, sum, 1e-5);
  EXPECT_NEAR(snap.MeanMs(), sum / 5.0, 1e-5);
}

TEST(HistogramTest, EmptyHistogramReportsZeroes) {
  LatencyHistogram h;
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_EQ(snap.MeanMs(), 0.0);
}

// The core accuracy claim: bucketed percentiles stay within one bucket
// width (~9%, we allow 10%) of the exact sorted-sample percentile, for a
// latency-shaped (log-uniform) distribution.
TEST(HistogramTest, PercentilesTrackExactSortedSamples) {
  Rng rng(42);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform over [0.05 ms, 5 s]: every decade equally likely, the
    // shape real latency tails take.
    const double v = 0.05 * std::pow(10.0, rng.Uniform(0.0, 5.0));
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const auto snap = h.TakeSnapshot();
  ASSERT_EQ(snap.total, samples.size());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const double exact =
        samples[static_cast<size_t>(q * (samples.size() - 1))];
    const double est = snap.Percentile(q);
    EXPECT_NEAR(est, exact, 0.10 * exact)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  EXPECT_GE(snap.Percentile(0.0), snap.min_ms);
  EXPECT_LE(snap.Percentile(1.0), snap.max_ms);
}

TEST(HistogramTest, PercentileOfUniformSamplesInterpolates) {
  // All mass in one bucket: interpolation must not collapse to a bound.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(10.0);
  const auto snap = h.TakeSnapshot();
  EXPECT_NEAR(snap.Percentile(0.5), 10.0, 1.0);
  EXPECT_NEAR(snap.Percentile(0.99), 10.0, 1.0);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(rng.Uniform(0.1, 100.0));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.total,
            static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_sum = 0;
  for (uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, snap.total);
  EXPECT_GE(snap.min_ms, 0.1);
  EXPECT_LE(snap.max_ms, 100.0);
}

// ------------------------------------------------------------- registry

MatchStats SomeMatchStats(uint64_t scale) {
  MatchStats s;
  s.probe.index_accesses = 2 * scale;
  s.probe.rows_fetched = 10 * scale;
  s.candidate_positions = 5 * scale;
  s.distance_calls = 3 * scale;
  s.lb_pruned = scale;
  s.phase1_ms = 0.5 * static_cast<double>(scale);
  return s;
}


TEST(StatsRegistryTest, AggregatesPerSeriesAndGlobal) {
  StatsRegistry reg;
  reg.RecordQuery("a", 10.0, SomeMatchStats(1), /*ok=*/true);
  reg.RecordQuery("a", 20.0, SomeMatchStats(2), /*ok=*/false);
  reg.RecordQuery("b", 30.0, SomeMatchStats(3), /*ok=*/true);

  const ServiceStatsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value(Metric::kQueries), 3.0);
  EXPECT_EQ(snap.Value(Metric::kQueryErrors), 1.0);
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].series, "a");
  EXPECT_EQ(snap.series[0].queries, 2u);
  EXPECT_EQ(snap.series[0].errors, 1u);
  EXPECT_EQ(snap.series[0].match.candidate_positions, 5u + 10u);
  EXPECT_NEAR(snap.series[0].match.phase1_ms, 1.5, 1e-5);
  EXPECT_EQ(snap.series[1].series, "b");
  EXPECT_EQ(snap.series[1].queries, 1u);
  EXPECT_EQ(snap.Value(Metric::kSeriesQueries, "a"), 2.0);
  EXPECT_EQ(snap.Value(Metric::kSeriesCandidates, "a"), 15.0);
  const LatencyHistogram::Snapshot& h = snap.Histogram(Metric::kQueryLatency);
  EXPECT_EQ(h.total, 3u);
  EXPECT_DOUBLE_EQ(h.min_ms, 10.0);
  EXPECT_DOUBLE_EQ(h.max_ms, 30.0);
}

TEST(StatsRegistryTest, RecordQueryIsThreadSafeAndLossless) {
  StatsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      const std::string series = "s" + std::to_string(t % 3);
      for (int i = 0; i < kPerThread; ++i) {
        reg.RecordQuery(series, 1.0 + i % 7, SomeMatchStats(1), true);
        reg.Add(Metric::kQueriesInFlight);
        reg.Add(Metric::kQueriesInFlight, -1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const ServiceStatsSnapshot snap = reg.Snapshot();
  const double total = static_cast<double>(kThreads) * kPerThread;
  EXPECT_EQ(snap.Value(Metric::kQueries), total);
  EXPECT_EQ(snap.Histogram(Metric::kQueryLatency).total, total);
  EXPECT_EQ(snap.Value(Metric::kQueriesInFlight), 0.0);
  uint64_t per_series = 0;
  for (const auto& s : snap.series) per_series += s.queries;
  EXPECT_EQ(per_series, total);
}

// Points must be attributed to the series that ingested them, not just
// the global counter.
TEST(StatsRegistryTest, IngestPointsAreAttributedPerSeries) {
  StatsRegistry reg;
  reg.RecordIngest("alpha", 1000, 2);
  reg.RecordIngest("beta", 500, 1);
  reg.RecordIngest("alpha", 250, 1);

  const ServiceStatsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value(Metric::kIngestPoints), 1750.0);
  EXPECT_EQ(snap.Value(Metric::kIngestBatches), 4.0);
  EXPECT_EQ(snap.Value(Metric::kSeriesIngestPoints, "alpha"), 1250.0);
  EXPECT_EQ(snap.Value(Metric::kSeriesIngestPoints, "beta"), 500.0);

  const std::string text = StatsToText(snap);
  EXPECT_NE(text.find(
                "kvmatch_series_ingest_points_total{series=\"alpha\"} 1250"),
            std::string::npos);
  EXPECT_NE(text.find(
                "kvmatch_series_ingest_points_total{series=\"beta\"} 500"),
            std::string::npos);
}

// ------------------------------------------------------- text exposition

// Every exposition line is either a `# HELP` / `# TYPE` comment or a
// sample `name{labels} value`: one metric name, an optional well-formed
// label set, one numeric value.
TEST(StatsToTextTest, EveryLineParsesAsPrometheusSample) {
  StatsRegistry reg;
  reg.RecordQuery("s0", 1.5, SomeMatchStats(1), true);
  reg.RecordQuery("s1", 250.0, SomeMatchStats(2), false);
  reg.RecordIngest("s0", 4096, 4);
  reg.RecordEpochInstalled("s0", 1);
  reg.Add(Metric::kRejected);
  reg.Add(Metric::kProtocolErrors);

  ServiceStatsSnapshot snap = reg.Snapshot();
  snap.Set(Metric::kQueueDepth, 2);
  snap.Set(Metric::kWorkersBusy, 3);
  snap.Set(Metric::kWorkers, 4);
  const std::string text = StatsToText(snap);

  const std::regex line_re(
      R"re(^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*,?\})? -?[0-9].*$)re");
  const std::regex comment_re(
      R"re(^# (HELP [a-zA-Z_][a-zA-Z0-9_]* .+|TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram))$)re");
  std::istringstream in(text);
  std::string line;
  size_t lines = 0;
  std::map<std::string, double> metrics;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment_re)) << "bad line: " << line;
      continue;
    }
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos);
    metrics[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    ++lines;
  }
  EXPECT_GT(lines, 30u);

  // The counters the scrape dashboard keys on must all be present.
  EXPECT_EQ(metrics.at("kvmatch_queries_total"), 2.0);
  EXPECT_EQ(metrics.at("kvmatch_query_errors_total"), 1.0);
  EXPECT_EQ(metrics.at("kvmatch_rejected_total"), 1.0);
  EXPECT_EQ(metrics.at("kvmatch_protocol_errors_total"), 1.0);
  EXPECT_EQ(metrics.at("kvmatch_queue_depth"), 2.0);
  EXPECT_EQ(metrics.at("kvmatch_workers_busy"), 3.0);
  EXPECT_EQ(metrics.at("kvmatch_workers"), 4.0);
  EXPECT_EQ(metrics.at("kvmatch_ingest_points_total"), 4096.0);
  EXPECT_EQ(
      metrics.at("kvmatch_series_ingest_points_total{series=\"s0\"}"),
      4096.0);
  EXPECT_EQ(metrics.at("kvmatch_series_queries_total{series=\"s1\"}"), 1.0);
  EXPECT_EQ(metrics.at("kvmatch_query_latency_ms_count"), 2.0);
  EXPECT_NEAR(metrics.at("kvmatch_query_latency_ms_sum"), 251.5, 1e-3);
  EXPECT_TRUE(metrics.count(
      "kvmatch_series_latency_ms{series=\"s0\",stat=\"p99\"}"));
}

// The histogram exposition: cumulative, monotone, +Inf-terminated, and
// `_count` == the +Inf bucket == total observations.
TEST(StatsToTextTest, HistogramExpositionIsWellFormed) {
  StatsRegistry reg;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    reg.RecordQuery("s", rng.Uniform(0.5, 400.0), MatchStats{}, true);
  }
  const std::string text = reg.ToText();

  const std::regex bucket_re(
      R"re(kvmatch_query_latency_ms_bucket\{le="([^"]+)"\} ([0-9]+))re");
  std::istringstream in(text);
  std::string line;
  uint64_t prev_cum = 0;
  double prev_le = 0.0;
  size_t buckets = 0;
  bool saw_inf = false;
  uint64_t inf_count = 0;
  while (std::getline(in, line)) {
    std::smatch m;
    if (!std::regex_match(line, m, bucket_re)) continue;
    ++buckets;
    const uint64_t cum = std::stoull(m[2]);
    EXPECT_GE(cum, prev_cum) << "non-monotone at " << line;
    prev_cum = cum;
    if (m[1] == "+Inf") {
      saw_inf = true;
      inf_count = cum;
    } else {
      EXPECT_FALSE(saw_inf) << "+Inf bucket must be last";
      const double le = std::stod(m[1]);
      EXPECT_GT(le, prev_le);
      prev_le = le;
    }
  }
  EXPECT_GT(buckets, 10u);
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_count, 500u);
  EXPECT_NE(text.find("kvmatch_query_latency_ms_sum "), std::string::npos);
  EXPECT_NE(text.find("kvmatch_query_latency_ms_count 500"),
            std::string::npos);
}

// An empty registry still emits a parseable dump with the mandatory
// +Inf terminator (Prometheus requires it even for empty histograms).
TEST(StatsToTextTest, EmptyRegistryStillExposesHistogramTerminator) {
  StatsRegistry reg;
  const std::string text = reg.ToText();
  EXPECT_NE(text.find("kvmatch_query_latency_ms_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("kvmatch_query_latency_ms_count 0"),
            std::string::npos);
}

// ------------------------------------------------------ exposition contract

/// One parsed scrape: sample key -> value, and each key's family.
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, const MetricDef*> family;
};

std::vector<std::string> SplitCommas(std::string_view s) {
  std::vector<std::string> out;
  while (!s.empty()) {
    const size_t c = s.find(',');
    out.emplace_back(s.substr(0, c));
    s = c == std::string_view::npos ? "" : s.substr(c + 1);
  }
  return out;
}

/// Checks a STATS or /metrics body against the declared table and returns
/// every violation found (empty when the body keeps the contract):
///   - every sample belongs to a declared family, with its label keys;
///   - each family has exactly one # HELP and one # TYPE line, both
///     before its samples, and its samples are contiguous;
///   - the # TYPE matches the table, and a family is a counter exactly
///     when its name ends in _total (so the table cannot type a gauge as
///     a counter or the other way round);
///   - no sample key appears twice.
std::vector<std::string> CheckExposition(const std::string& text,
                                         Scrape* scrape) {
  std::vector<std::string> problems;
  std::set<std::string> helped, typed, closed;
  std::string current;  // family whose samples are being read
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream fields(line);
      std::string hash, kind, name;
      fields >> hash >> kind >> name;
      const MetricDef* def = FindMetric(name);
      if (def == nullptr) {
        problems.push_back("comment for undeclared family: " + line);
        continue;
      }
      if (kind != "HELP" && kind != "TYPE") {
        problems.push_back("unknown comment: " + line);
        continue;
      }
      std::set<std::string>& seen = kind == "HELP" ? helped : typed;
      if (!seen.insert(name).second) {
        problems.push_back(kind + " twice for " + name);
      }
      if (kind == "TYPE") {
        std::string type;
        fields >> type;
        const char* want = def->type == MetricType::kCounter ? "counter"
                           : def->type == MetricType::kGauge ? "gauge"
                                                             : "histogram";
        if (type != want) problems.push_back(name + " typed " + type);
        const bool total = std::string_view(name).ends_with("_total");
        if ((type == "counter") != total) {
          problems.push_back(name + " is a " + type +
                             (total ? " but ends in _total"
                                    : " but lacks _total"));
        }
      }
      continue;
    }
    const size_t sp = line.rfind(' ');
    const std::string key = line.substr(0, sp);
    const size_t brace = key.find('{');
    const std::string name = key.substr(0, brace);
    const MetricDef* def = FindMetric(name);
    std::string family = name;
    std::vector<std::string> want_keys;
    if (def == nullptr) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        if (!std::string_view(name).ends_with(suffix)) continue;
        family = name.substr(0, name.size() - std::strlen(suffix));
        def = FindMetric(family);
        if (std::string_view(suffix) == "_bucket") want_keys = {"le"};
        break;
      }
      if (def == nullptr || def->type != MetricType::kHistogram) {
        problems.push_back("sample of undeclared family: " + line);
        continue;
      }
    } else {
      if (def->type == MetricType::kHistogram) {
        problems.push_back("bare sample of histogram: " + line);
      }
      want_keys = SplitCommas(def->labels);
    }
    std::vector<std::string> keys;
    if (brace != std::string::npos) {
      const std::regex label_re(R"re(([a-zA-Z_]+)="[^"]*")re");
      const std::string labels = key.substr(brace);
      for (std::sregex_iterator it(labels.begin(), labels.end(), label_re),
           end;
           it != end; ++it) {
        keys.push_back((*it)[1]);
      }
    }
    if (keys != want_keys) problems.push_back("label keys of " + line);
    if (!helped.count(family) || !typed.count(family)) {
      problems.push_back("sample before HELP/TYPE: " + line);
    }
    if (family != current) {
      if (closed.count(family)) {
        problems.push_back("samples of " + family + " are not contiguous");
      }
      if (!current.empty()) closed.insert(current);
      current = family;
    }
    if (!scrape->values.emplace(key, std::strtod(line.c_str() + sp + 1,
                                                 nullptr))
             .second) {
      problems.push_back("sample key twice: " + key);
    }
    scrape->family[key] = def;
  }
  return problems;
}

/// Every counter and every histogram _count in `later` is at least its
/// value in `earlier`.
std::vector<std::string> CheckMonotonic(const Scrape& earlier,
                                        const Scrape& later) {
  std::vector<std::string> problems;
  for (const auto& [key, value] : later.values) {
    const MetricDef* def = later.family.at(key);
    const bool accumulates =
        def->type == MetricType::kCounter ||
        (def->type == MetricType::kHistogram &&
         std::string_view(key).ends_with("_count"));
    const auto it = earlier.values.find(key);
    if (accumulates && it != earlier.values.end() && value < it->second) {
      problems.push_back(key + " fell from " + std::to_string(it->second) +
                         " to " + std::to_string(value));
    }
  }
  return problems;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

TEST(ExpositionContractTest, CheckerCatchesDuplicateAndMistypedFamilies) {
  Scrape scrape;
  const std::string twice =
      "# HELP kvmatch_rejected_total x\n# TYPE kvmatch_rejected_total "
      "counter\nkvmatch_rejected_total 1\n"
      "# HELP kvmatch_rejected_total x\n# TYPE kvmatch_rejected_total "
      "counter\nkvmatch_rejected_total 1\n";
  EXPECT_FALSE(CheckExposition(twice, &scrape).empty());
  scrape = {};
  const std::string mistyped =
      "# HELP kvmatch_queue_depth x\n# TYPE kvmatch_queue_depth counter\n"
      "kvmatch_queue_depth 1\n";
  EXPECT_FALSE(CheckExposition(mistyped, &scrape).empty());
  scrape = {};
  const std::string undeclared = "kvmatch_latency_ms{stat=\"p50\"} 1\n";
  EXPECT_FALSE(CheckExposition(undeclared, &scrape).empty());
}

// The declared table itself: unique names, counters named *_total, label
// keys well formed.
TEST(ExpositionContractTest, TableDeclaresEachFamilyOnce) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumMetrics; ++i) {
    const MetricDef& def = kMetricTable[i];
    EXPECT_EQ(static_cast<size_t>(def.id), i);
    EXPECT_TRUE(names.insert(def.name).second) << def.name;
    EXPECT_EQ(def.type == MetricType::kCounter,
              std::string_view(def.name).ends_with("_total"))
        << def.name;
    EXPECT_NE(std::string_view(def.help), "") << def.name;
    EXPECT_EQ(FindMetric(def.name), &def);
  }
}

// Catalog::FillGauges drops any backend figure the table does not
// declare, so every backend's names must be declared.
TEST(ExpositionContractTest, EveryBackendGaugeIsDeclared) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("kvm_stats_backends_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  MemKvStore mem;
  auto file = FileKvStore::Open((dir / "file.kvm").string());
  ASSERT_TRUE(file.ok());
  auto mini = MiniKv::Open((dir / "mini").string());
  ASSERT_TRUE(mini.ok());
  for (const KvStore* store :
       {static_cast<const KvStore*>(&mem),
        static_cast<const KvStore*>(file->get()),
        static_cast<const KvStore*>(mini->get())}) {
    std::vector<std::pair<std::string, uint64_t>> gauges;
    store->FillGauges(&gauges);
    EXPECT_FALSE(gauges.empty());
    for (const auto& [name, value] : gauges) {
      EXPECT_NE(FindMetric("kvmatch_storage_" + name), nullptr) << name;
    }
  }
  mini->reset();
  file->reset();
  std::filesystem::remove_all(dir);
}

std::string HttpGetMetrics(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  EXPECT_NE(body, std::string::npos) << response;
  return body == std::string::npos ? "" : response.substr(body + 4);
}

/// One shard (`serve`) over the instrumented in-memory store, with an
/// event journal and a one-byte memory budget (every switch of series
/// evicts), behind a one-shard coordinator (`coord`).
struct LiveStack {
  EventLog events;
  MemKvStore store;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<coord::CoordServer> coord;

  LiveStack() {
    Catalog::Options copts;
    copts.session.wu = 25;
    copts.session.levels = 3;
    copts.memory_budget_bytes = 1;
    copts.event_log = &events;
    catalog = std::make_unique<Catalog>(&store, copts);
    service = std::make_unique<QueryService>(
        catalog.get(), QueryService::Options{.num_threads = 2});
    catalog->SetStatsRegistry(service->stats_registry());
    net::Server::Options sopts;
    sopts.port = 0;
    server = std::make_unique<net::Server>(catalog.get(), service.get(),
                                           sopts);
    EXPECT_TRUE(server->Start().ok());
    auto map = coord::ShardMap::FromEndpoints(
        {coord::ShardEndpoint{"127.0.0.1", server->port()}});
    EXPECT_TRUE(map.ok());
    coord::CoordServer::CoordOptions coptions;
    coptions.server.port = 0;
    coptions.coord.verify_shard_identity = false;
    coord = std::make_unique<coord::CoordServer>(*map, coptions);
    EXPECT_TRUE(coord->Start().ok());
  }
};

QueryRequest SomeQuery(const std::string& series, size_t i) {
  QueryRequest req;
  req.series = series;
  Rng rng(300 + i);
  req.query = GenerateSynthetic(64, &rng).values();
  req.params.type = i % 2 == 0 ? QueryType::kRsmEd : QueryType::kCnsmEd;
  req.params.epsilon = 5.0;
  req.params.alpha = 2.0;
  req.params.beta = 5.0;
  return req;
}

// STATS and /metrics of both `serve` and `coord`, scraped after mixed
// traffic, an ingest and evictions, keep the contract; a second scrape
// taken while queries run never shows a counter below the first.
TEST(ExpositionContractTest, ServeAndCoordExpositionsKeepTheContract) {
  LiveStack stack;
  auto client = net::Client::Connect("127.0.0.1", stack.server->port());
  ASSERT_TRUE(client.ok());
  for (const char* name : {"a", "b"}) {
    Rng rng(name[0]);
    const TimeSeries x = GenerateSynthetic(4096, &rng);
    ASSERT_TRUE((*client)->CreateSeries(name, x.values()).ok());
  }
  Rng rng(9);
  ASSERT_TRUE(
      (*client)->AppendSeries("a", GenerateSynthetic(512, &rng).values())
          .ok());
  for (size_t i = 0; i < 6; ++i) {
    auto response = (*client)->Query(SomeQuery(i % 2 ? "a" : "b", i));
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
  }
  auto missing = (*client)->Query(SomeQuery("nope", 0));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->status.ok());
  auto front = net::Client::Connect("127.0.0.1", stack.coord->port());
  ASSERT_TRUE(front.ok());
  for (size_t i = 0; i < 2; ++i) {
    auto response = (*front)->Query(SomeQuery("a", i));
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
  }

  // Traffic keeps running on both ends while the scrapes are taken.
  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    auto c = net::Client::Connect("127.0.0.1", stack.server->port());
    auto f = net::Client::Connect("127.0.0.1", stack.coord->port());
    if (!c.ok() || !f.ok()) return;
    for (size_t i = 0; !stop.load(); ++i) {
      (void)(*c)->Query(SomeQuery(i % 2 ? "a" : "b", i));
      (void)(*f)->Query(SomeQuery("b", i));
    }
  });
  struct Endpoint {
    const char* what;
    std::function<std::string()> stats;
    int port;
  };
  const Endpoint endpoints[] = {
      {"serve", [&] { return *(*client)->StatsText(); },
       stack.server->port()},
      {"coord", [&] { return *(*front)->StatsText(); },
       stack.coord->port()},
  };
  for (const Endpoint& e : endpoints) {
    SCOPED_TRACE(e.what);
    Scrape stats1, http1, stats2, http2;
    const std::string text = e.stats();
    EXPECT_EQ(Join(CheckExposition(text, &stats1)), "") << text;
    EXPECT_EQ(Join(CheckExposition(HttpGetMetrics(e.port), &http1)), "");
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(Join(CheckExposition(e.stats(), &stats2)), "");
    EXPECT_EQ(Join(CheckExposition(HttpGetMetrics(e.port), &http2)), "");
    EXPECT_EQ(Join(CheckMonotonic(stats1, stats2)), "");
    EXPECT_EQ(Join(CheckMonotonic(http1, http2)), "");
    EXPECT_EQ(Join(CheckMonotonic(stats2, http2)), "");
    EXPECT_GT(stats2.values.at("kvmatch_queries_total"),
              0.0);
    // Every family kvbench derives a metric from.
    for (const char* key :
         {"kvmatch_net_epoll_wakeups_total",
          "kvmatch_net_loop_iterations_total",
          "kvmatch_series_evicted_total", "kvmatch_resident_bytes"}) {
      EXPECT_TRUE(stats2.values.count(key)) << key;
    }
  }
  stop.store(true);
  traffic.join();

  Scrape serve;
  const std::string text = *(*client)->StatsText();
  ASSERT_EQ(Join(CheckExposition(text, &serve)), "");
  EXPECT_GT(serve.values.at("kvmatch_series_evicted_total"), 0.0);
  EXPECT_GT(serve.values.at("kvmatch_resident_bytes"), 0.0);
  EXPECT_GT(serve.values.at("kvmatch_connections_open"), 0.0);
  for (const char* key :
       {"kvmatch_commits_total{kind=\"create\"}",
        "kvmatch_commits_total{kind=\"append\"}",
        "kvmatch_commits_total{kind=\"replace\"}",
        "kvmatch_commit_stage_ms_total{stage=\"journal\"}",
        "kvmatch_commit_stage_ms_total{stage=\"data\"}",
        "kvmatch_commit_stage_ms_total{stage=\"index\"}",
        "kvmatch_commit_stage_ms_total{stage=\"header\"}",
        "kvmatch_commit_stage_ms_total{stage=\"flip\"}",
        "kvmatch_commit_latency_ms_count",
        "kvmatch_kvstore_ops_total{op=\"scan\"}",
        "kvmatch_kvstore_ops_total{op=\"flush\"}",
        "kvmatch_kvstore_scan_latency_ms_count",
        "kvmatch_kvstore_flush_latency_ms_count",
        "kvmatch_kvstore_apply_latency_ms_count",
        "kvmatch_kvstore_bytes_read_total",
        "kvmatch_kvstore_bytes_written_total",
        "kvmatch_events_total{type=\"eviction\"}"}) {
    EXPECT_TRUE(serve.values.count(key)) << key;
  }
  EXPECT_EQ(serve.values.at("kvmatch_commits_total{kind=\"append\"}"), 1.0);
  EXPECT_GT(serve.values.at("kvmatch_kvstore_scan_latency_ms_count"), 0.0);

  Scrape front_scrape;
  ASSERT_EQ(Join(CheckExposition(*(*front)->StatsText(), &front_scrape)), "");
  EXPECT_EQ(front_scrape.values.at("kvmatch_coord_shard_connected{shard=\"0\"}"),
            1.0);
}

}  // namespace
}  // namespace kvmatch
