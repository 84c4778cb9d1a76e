#include "service/service_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/event_log.h"

namespace kvmatch {

namespace {

constexpr double kNsPerMs = 1e6;

uint64_t ToNs(double ms) {
  return ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * kNsPerMs);
}

double NsToMs(const std::atomic<uint64_t>& ns) {
  return static_cast<double>(ns.load(std::memory_order_relaxed)) / kNsPerMs;
}

constexpr const char* kCommitKindNames[] = {"create", "append", "replace"};
constexpr const char* kCommitStageNames[] = {"journal", "data", "index",
                                             "header", "flip"};

static_assert(static_cast<int>(Metric::kKvstoreFlushLatency) -
                      static_cast<int>(Metric::kKvstoreGetLatency) + 1 ==
                  KvStoreStats::kNumOps,
              "one latency family per storage op, in Op order");

bool IsScalar(const MetricDef& def) {
  return def.type != MetricType::kHistogram && def.labels[0] == '\0';
}

}  // namespace

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& def : kMetricTable) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

LatencySummary Summarize(const LatencyHistogram::Snapshot& h) {
  LatencySummary out;
  out.count = h.total;
  if (h.total == 0) return out;
  out.min_ms = h.min_ms;
  out.max_ms = h.max_ms;
  out.mean_ms = h.MeanMs();
  out.p50_ms = h.Percentile(0.50);
  out.p95_ms = h.Percentile(0.95);
  out.p99_ms = h.Percentile(0.99);
  return out;
}

// ------------------------------------------------------------ snapshot

void ServiceStatsSnapshot::Set(Metric m, double value) {
  samples[static_cast<size_t>(m)].assign(1, MetricSample{"", value});
}

void ServiceStatsSnapshot::Add(Metric m, std::string labels, double value) {
  samples[static_cast<size_t>(m)].push_back({std::move(labels), value});
}

double ServiceStatsSnapshot::Value(Metric m, std::string_view labels) const {
  for (const MetricSample& s : samples[static_cast<size_t>(m)]) {
    if (s.labels == labels) return s.value;
  }
  return 0.0;
}

const LatencyHistogram::Snapshot& ServiceStatsSnapshot::Histogram(
    Metric m) const {
  static const LatencyHistogram::Snapshot kEmpty;
  auto it = histograms.find(m);
  return it == histograms.end() ? kEmpty : it->second;
}

// ------------------------------------------------------------ registry

void StatsRegistry::AtomicMatchStats::Add(const MatchStats& s) {
  const auto add = [](std::atomic<uint64_t>& a, uint64_t v) {
    if (v) a.fetch_add(v, std::memory_order_relaxed);
  };
  add(index_accesses, s.probe.index_accesses);
  add(rows_fetched, s.probe.rows_fetched);
  add(intervals_fetched, s.probe.intervals_fetched);
  add(bytes_fetched, s.probe.bytes_fetched);
  add(cache_hits, s.probe.cache_hits);
  add(candidate_positions, s.candidate_positions);
  add(candidate_intervals, s.candidate_intervals);
  add(distance_calls, s.distance_calls);
  add(lb_pruned, s.lb_pruned);
  add(constraint_pruned, s.constraint_pruned);
  add(phase1_ns, ToNs(s.phase1_ms));
  add(phase2_ns, ToNs(s.phase2_ms));
}

MatchStats StatsRegistry::AtomicMatchStats::Load() const {
  MatchStats out;
  out.probe.index_accesses = index_accesses.load(std::memory_order_relaxed);
  out.probe.rows_fetched = rows_fetched.load(std::memory_order_relaxed);
  out.probe.intervals_fetched =
      intervals_fetched.load(std::memory_order_relaxed);
  out.probe.bytes_fetched = bytes_fetched.load(std::memory_order_relaxed);
  out.probe.cache_hits = cache_hits.load(std::memory_order_relaxed);
  out.candidate_positions =
      candidate_positions.load(std::memory_order_relaxed);
  out.candidate_intervals =
      candidate_intervals.load(std::memory_order_relaxed);
  out.distance_calls = distance_calls.load(std::memory_order_relaxed);
  out.lb_pruned = lb_pruned.load(std::memory_order_relaxed);
  out.constraint_pruned = constraint_pruned.load(std::memory_order_relaxed);
  out.phase1_ms = NsToMs(phase1_ns);
  out.phase2_ms = NsToMs(phase2_ns);
  return out;
}

StatsRegistry::StatsRegistry() : start_(std::chrono::steady_clock::now()) {}

StatsRegistry::PerSeries* StatsRegistry::GetSeries(const std::string& series) {
  {
    std::shared_lock<std::shared_mutex> lock(series_mu_);
    auto it = series_.find(series);
    if (it != series_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(series_mu_);
  auto& slot = series_[series];
  if (!slot) slot = std::make_shared<PerSeries>();
  return slot.get();
}

void StatsRegistry::RecordQuery(const std::string& series, double latency_ms,
                                const MatchStats& stats, bool ok) {
  PerSeries* s = GetSeries(series);
  s->queries.fetch_add(1, std::memory_order_relaxed);
  if (!ok) s->errors.fetch_add(1, std::memory_order_relaxed);
  s->match.Add(stats);
  s->latency.Record(latency_ms);
  all_latency_.Record(latency_ms);
}

void StatsRegistry::RecordIngest(const std::string& series, uint64_t points,
                                 uint64_t batches) {
  Add(Metric::kIngestPoints, static_cast<int64_t>(points));
  Add(Metric::kIngestBatches, static_cast<int64_t>(batches));
  std::lock_guard<std::mutex> lock(gauge_mu_);
  ingest_points_[series] += points;
}

void StatsRegistry::RecordEpochInstalled(const std::string& series,
                                         uint64_t epoch) {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  epoch_gauges_[series] = epoch;
}

void StatsRegistry::RecordCommit(const CommitRecord& rec) {
  const std::string_view kind = rec.kind;
  const size_t k = kind == "create" ? 0 : kind == "append" ? 1 : 2;
  commits_[k].fetch_add(1, std::memory_order_relaxed);
  commit_latency_.Record(rec.total_ms);
  const double stage_ms[kCommitStages] = {rec.journal_ms, rec.data_ms,
                                          rec.index_ms, rec.header_ms,
                                          rec.flip_ms};
  for (size_t i = 0; i < kCommitStages; ++i) {
    commit_stage_ns_[i].fetch_add(ToNs(stage_ms[i]),
                                  std::memory_order_relaxed);
  }
  Add(Metric::kCommitChunkRows, static_cast<int64_t>(rec.chunk_rows));
  Add(Metric::kCommitIndexRows, static_cast<int64_t>(rec.index_rows));
  Add(Metric::kCommitBytes, static_cast<int64_t>(rec.bytes_written));
}

void StatsRegistry::AttachStorage(std::shared_ptr<KvStoreStats> storage) {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  storage_ = std::move(storage);
}

void StatsRegistry::AttachEventLog(EventLog* events) {
  std::lock_guard<std::mutex> lock(gauge_mu_);
  events_ = events;
}

void StatsRegistry::RecordSeriesDropped(const std::string& series) {
  Add(Metric::kSeriesDropped);
  std::lock_guard<std::mutex> lock(gauge_mu_);
  epoch_gauges_.erase(series);
}

ServiceStatsSnapshot StatsRegistry::Snapshot() const {
  ServiceStatsSnapshot snap;
  for (const MetricDef& def : kMetricTable) {
    if (!IsScalar(def)) continue;
    // A gauge's +1 and its -1 come from different threads, so a load can
    // land between them; clamp for display.
    snap.Set(def.id,
             static_cast<double>(std::max<int64_t>(
                 0, scalars_[static_cast<size_t>(def.id)].load(
                        std::memory_order_relaxed))));
  }
  snap.Set(Metric::kUptime, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)
                                .count());
  for (size_t k = 0; k < kCommitKinds; ++k) {
    snap.Add(Metric::kCommits, kCommitKindNames[k],
             static_cast<double>(commits_[k].load(std::memory_order_relaxed)));
  }
  for (size_t i = 0; i < kCommitStages; ++i) {
    snap.Add(Metric::kCommitStageMs, kCommitStageNames[i],
             NsToMs(commit_stage_ns_[i]));
  }
  snap.histograms[Metric::kQueryLatency] = all_latency_.TakeSnapshot();
  snap.histograms[Metric::kCommitLatency] = commit_latency_.TakeSnapshot();

  {
    std::lock_guard<std::mutex> lock(gauge_mu_);
    for (const auto& [name, epoch] : epoch_gauges_) {
      snap.Add(Metric::kSeriesEpoch, name, static_cast<double>(epoch));
    }
    for (const auto& [name, points] : ingest_points_) {
      snap.Add(Metric::kSeriesIngestPoints, name,
               static_cast<double>(points));
    }
    if (storage_ != nullptr) {
      const KvStoreStats::Snapshot st = storage_->TakeSnapshot();
      for (int op = 0; op < KvStoreStats::kNumOps; ++op) {
        const char* op_name = KvStoreStats::OpName(op);
        snap.Add(Metric::kKvstoreOps, op_name,
                 static_cast<double>(st.ops[op].count));
        snap.Add(Metric::kKvstoreErrors, op_name,
                 static_cast<double>(st.ops[op].errors));
        snap.histograms[static_cast<Metric>(
            static_cast<int>(Metric::kKvstoreGetLatency) + op)] =
            st.ops[op].latency;
      }
      snap.Set(Metric::kKvstoreBytesRead,
               static_cast<double>(st.bytes_read));
      snap.Set(Metric::kKvstoreBytesWritten,
               static_cast<double>(st.bytes_written));
      snap.Set(Metric::kKvstoreScanRows, static_cast<double>(st.scan_rows));
      snap.histograms[Metric::kKvstoreBatchOps] = st.batch_ops;
    }
    if (events_ != nullptr) {
      snap.Set(Metric::kEventsEmitted,
               static_cast<double>(events_->TotalEvents()));
      for (const auto& [type, count] : events_->CountsByType()) {
        snap.Add(Metric::kEvents, type, static_cast<double>(count));
      }
    }
  }

  std::vector<std::pair<std::string, std::shared_ptr<PerSeries>>> live;
  {
    std::shared_lock<std::shared_mutex> lock(series_mu_);
    live.assign(series_.begin(), series_.end());  // std::map: sorted by name
  }
  uint64_t queries = 0;
  uint64_t errors = 0;
  for (const auto& [name, s] : live) {
    SeriesStatsSnapshot out;
    out.series = name;
    out.queries = s->queries.load(std::memory_order_relaxed);
    out.errors = s->errors.load(std::memory_order_relaxed);
    out.latency = Summarize(s->latency.TakeSnapshot());
    out.match = s->match.Load();
    queries += out.queries;
    errors += out.errors;

    snap.Add(Metric::kSeriesQueries, name, static_cast<double>(out.queries));
    snap.Add(Metric::kSeriesErrors, name, static_cast<double>(out.errors));
    const std::pair<const char*, double> stats[] = {
        {"min", out.latency.min_ms}, {"mean", out.latency.mean_ms},
        {"p50", out.latency.p50_ms}, {"p95", out.latency.p95_ms},
        {"p99", out.latency.p99_ms}, {"max", out.latency.max_ms}};
    for (const auto& [stat, value] : stats) {
      snap.Add(Metric::kSeriesLatency, name + "," + stat, value);
    }
    snap.Add(Metric::kSeriesCandidates, name,
             static_cast<double>(out.match.candidate_positions));
    snap.Add(Metric::kSeriesIndexAccesses, name,
             static_cast<double>(out.match.probe.index_accesses));
    snap.Add(Metric::kSeriesDistanceCalls, name,
             static_cast<double>(out.match.distance_calls));
    snap.series.push_back(std::move(out));
  }
  snap.Set(Metric::kQueries, static_cast<double>(queries));
  snap.Set(Metric::kQueryErrors, static_cast<double>(errors));
  return snap;
}

std::string StatsRegistry::ToText() const { return StatsToText(Snapshot()); }

// ------------------------------------------------------------ exposition

namespace {

void AppendValue(std::string* out, double value) {
  char buf[64];
  // Counts print exactly; anything fractional keeps six digits.
  if (std::abs(value) < 1e15 && value == std::trunc(value)) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  }
  out->append(buf);
}

// `keys` and `values` are comma-separated and pair up in order.
void AppendLabels(std::string* out, std::string_view keys,
                  std::string_view values) {
  out->push_back('{');
  while (!keys.empty()) {
    const size_t kc = keys.find(',');
    const size_t vc = values.find(',');
    out->append(keys.substr(0, kc));
    out->append("=\"");
    out->append(values.substr(0, vc));
    out->push_back('"');
    keys = kc == std::string_view::npos ? "" : keys.substr(kc + 1);
    values = vc == std::string_view::npos ? "" : values.substr(vc + 1);
    if (!keys.empty()) out->push_back(',');
  }
  out->push_back('}');
}

void AppendSample(std::string* out, std::string_view name,
                  std::string_view suffix, std::string_view labels,
                  double value) {
  out->append(name);
  out->append(suffix);
  out->append(labels);
  out->push_back(' ');
  AppendValue(out, value);
  out->push_back('\n');
}

// Cumulative buckets. Buckets with no observations are skipped (200
// mostly-empty lines per poll would drown the dump) except the mandatory
// le="+Inf" terminator.
void AppendHistogram(std::string* out, std::string_view name,
                     const LatencyHistogram::Snapshot& h) {
  uint64_t cum = 0;
  char le[64];
  for (size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    if (h.counts[i] == 0) continue;
    cum += h.counts[i];
    std::snprintf(le, sizeof(le), "{le=\"%.6g\"}",
                  LatencyHistogram::BucketUpperBoundMs(i));
    AppendSample(out, name, "_bucket", le, static_cast<double>(cum));
  }
  AppendSample(out, name, "_bucket", "{le=\"+Inf\"}",
               static_cast<double>(h.total));
  AppendSample(out, name, "_sum", "", h.sum_ms);
  AppendSample(out, name, "_count", "", static_cast<double>(h.total));
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string StatsToText(const ServiceStatsSnapshot& snap) {
  std::string out;
  out.reserve(8192 + 1024 * snap.series.size());
  for (const MetricDef& def : kMetricTable) {
    const auto& samples = snap.samples[static_cast<size_t>(def.id)];
    const auto hist = snap.histograms.find(def.id);
    if (def.type == MetricType::kHistogram ? hist == snap.histograms.end()
                                           : samples.empty()) {
      continue;
    }
    out.append("# HELP ").append(def.name).append(" ").append(def.help);
    out.append("\n# TYPE ").append(def.name).append(" ");
    out.append(TypeName(def.type)).append("\n");
    if (def.type == MetricType::kHistogram) {
      AppendHistogram(&out, def.name, hist->second);
      continue;
    }
    for (const MetricSample& s : samples) {
      std::string labels;
      if (!s.labels.empty()) AppendLabels(&labels, def.labels, s.labels);
      AppendSample(&out, def.name, "", labels, s.value);
    }
  }
  return out;
}

}  // namespace kvmatch
