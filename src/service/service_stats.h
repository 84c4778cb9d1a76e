// Service-level observability: per-series throughput and latency plus the
// paper's per-query MatchStats, the network, ingest, commit, catalog and
// storage figures, all exposed through one Prometheus-style text dump
// (STATS over the wire, GET /metrics over HTTP).
//
// Every metric family is declared once, in KVMATCH_METRIC_FAMILIES below:
// name, type, label keys and help text. The registry's scalar storage, its
// Snapshot() and the renderer are loops over that table, so a new scalar
// metric is one table row plus its record call (StatsRegistry::Add). Every
// counter is monotonic for the life of the process: there is no reset, and
// a reader that wants a phase subtracts two snapshots.
//
// The hot path (Add, RecordQuery) is lock-free: every scalar is a relaxed
// atomic indexed by its family, and latencies go into striped
// LatencyHistograms. The per-series map is guarded by a shared_mutex taken
// shared for lookups and exclusive only on a series' first touch.
#ifndef KVMATCH_SERVICE_SERVICE_STATS_H_
#define KVMATCH_SERVICE_SERVICE_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "match/query_types.h"
#include "storage/instrumented_kvstore.h"

namespace kvmatch {

class EventLog;

enum class MetricType { kCounter, kGauge, kHistogram };

// Every family of the exposition, in print order:
//   X(id, name, type, label keys (comma-separated, "" if none), help)
// Every unlabeled counter and gauge is a registry scalar; the ones that
// other components own (pool, catalog, storage) are set in the snapshot
// by their owner. The kvmatch_storage_* rows name what
// KvStore::FillGauges backends report.
// The seven kvstore latency rows follow KvStoreStats::Op order.
#define KVMATCH_METRIC_FAMILIES(X)                                            \
  X(kUptime, "kvmatch_uptime_seconds", kGauge, "",                            \
    "Seconds since the stats registry was created.")                          \
  X(kQueries, "kvmatch_queries_total", kCounter, "",                          \
    "Queries completed, ok or failed; shed and expired requests excluded.")   \
  X(kQueryErrors, "kvmatch_query_errors_total", kCounter, "",                 \
    "Completed queries that returned an error.")                              \
  X(kRejected, "kvmatch_rejected_total", kCounter, "",                        \
    "Requests shed because the work queue was full.")                         \
  X(kDeadlineExceeded, "kvmatch_deadline_exceeded_total", kCounter, "",       \
    "Requests whose deadline expired before they started.")                   \
  X(kNotFound, "kvmatch_not_found_total", kCounter, "",                       \
    "Requests that named a series the catalog does not hold.")                \
  X(kCancelled, "kvmatch_cancelled_total", kCounter, "",                      \
    "Queries aborted by an explicit cancel, queued or running.")              \
  X(kDeadlineAbortedRunning, "kvmatch_deadline_aborted_running_total",        \
    kCounter, "", "Queries stopped mid-execution by their deadline.")         \
  X(kQueriesInFlight, "kvmatch_queries_in_flight", kGauge, "",                \
    "Accepted requests not yet answered, queued or executing.")               \
  X(kQueueDepth, "kvmatch_queue_depth", kGauge, "",                           \
    "Tasks waiting for a worker thread.")                                     \
  X(kWorkersBusy, "kvmatch_workers_busy", kGauge, "",                         \
    "Worker threads currently running a task.")                               \
  X(kWorkers, "kvmatch_workers", kGauge, "",                                  \
    "Worker threads in the query pool.")                                      \
  X(kQueryLatency, "kvmatch_query_latency_ms", kHistogram, "",                \
    "Query latency from submission to answer, in milliseconds.")              \
  X(kSeriesQueries, "kvmatch_series_queries_total", kCounter, "series",       \
    "Queries completed per series.")                                          \
  X(kSeriesErrors, "kvmatch_series_errors_total", kCounter, "series",         \
    "Completed queries that returned an error, per series.")                  \
  X(kSeriesLatency, "kvmatch_series_latency_ms", kGauge, "series,stat",       \
    "Per-series query latency (min, mean, p50, p95, p99, max), in ms.")       \
  X(kSeriesCandidates, "kvmatch_series_candidates_total", kCounter,           \
    "series", "Candidate positions verified, per series.")                    \
  X(kSeriesIndexAccesses, "kvmatch_series_index_accesses_total", kCounter,    \
    "series", "Index scans issued by the probe phase, per series.")           \
  X(kSeriesDistanceCalls, "kvmatch_series_distance_calls_total", kCounter,    \
    "series", "Full distance computations, per series.")                      \
  X(kConnectionsOpen, "kvmatch_connections_open", kGauge, "",                 \
    "Client connections currently open.")                                     \
  X(kConnectionsAccepted, "kvmatch_connections_accepted_total", kCounter, "", \
    "Client connections accepted.")                                           \
  X(kConnectionsRejected, "kvmatch_connections_rejected_total", kCounter, "", \
    "Client connections refused at the connection limit.")                    \
  X(kProtocolErrors, "kvmatch_protocol_errors_total", kCounter, "",           \
    "Corrupt or malformed frames received.")                                  \
  X(kHttpRequests, "kvmatch_http_requests_total", kCounter, "",               \
    "Requests served by the HTTP /metrics responder.")                        \
  X(kNetOutboxBytes, "kvmatch_net_outbox_bytes", kGauge, "",                  \
    "Response bytes queued but not yet written, over all connections.")       \
  X(kNetReadsPaused, "kvmatch_net_reads_paused_total", kCounter, "",          \
    "Reads paused because a connection's outbox hit its cap.")                \
  X(kNetLoopIterations, "kvmatch_net_loop_iterations_total", kCounter, "",    \
    "Returns from the reactor's epoll_wait.")                                 \
  X(kNetEpollWakeups, "kvmatch_net_epoll_wakeups_total", kCounter, "",        \
    "Reactor wake-ups requested by worker threads.")                          \
  X(kConnectionRequests, "kvmatch_connection_requests_total", kCounter,       \
    "conn", "Requests received per open connection.")                         \
  X(kConnectionAge, "kvmatch_connection_age_seconds", kGauge, "conn",         \
    "Seconds since each open connection was accepted.")                       \
  X(kIngestPoints, "kvmatch_ingest_points_total", kCounter, "",               \
    "Points ingested by create, append and replace.")                         \
  X(kIngestBatches, "kvmatch_ingest_batches_total", kCounter, "",             \
    "Write batches committed by the ingest path.")                            \
  X(kEpochsRetired, "kvmatch_epochs_retired_total", kCounter, "",             \
    "Series epochs superseded or dropped.")                                   \
  X(kSeriesDropped, "kvmatch_series_dropped_total", kCounter, "",             \
    "Series dropped from the catalog.")                                       \
  X(kSeriesEpoch, "kvmatch_series_epoch", kGauge, "series",                   \
    "Current epoch of each live series.")                                     \
  X(kSeriesIngestPoints, "kvmatch_series_ingest_points_total", kCounter,      \
    "series", "Points ingested per series, dropped series included.")        \
  X(kCommits, "kvmatch_commits_total", kCounter, "kind",                      \
    "Epoch commits by kind (create, append, replace).")                       \
  X(kSlowCommits, "kvmatch_slow_commits_total", kCounter, "",                 \
    "Commits slower than the catalog's slow-commit threshold.")               \
  X(kCommitLatency, "kvmatch_commit_latency_ms", kHistogram, "",              \
    "Epoch commit latency, in milliseconds.")                                 \
  X(kCommitStageMs, "kvmatch_commit_stage_ms_total", kCounter, "stage",       \
    "Wall time spent in each commit stage, in milliseconds.")                 \
  X(kCommitChunkRows, "kvmatch_commit_chunk_rows_total", kCounter, "",        \
    "Data chunk rows written by commits.")                                    \
  X(kCommitIndexRows, "kvmatch_commit_index_rows_total", kCounter, "",        \
    "Index rows written by commits.")                                         \
  X(kCommitBytes, "kvmatch_commit_bytes_total", kCounter, "",                 \
    "Encoded bytes written by commits.")                                      \
  X(kLiveEpochs, "kvmatch_live_epochs", kGauge, "",                           \
    "Series with a committed epoch.")                                         \
  X(kDataGenerations, "kvmatch_data_generations", kGauge, "",                 \
    "Live shared data-chunk generations.")                                    \
  X(kPinnedSnapshots, "kvmatch_pinned_snapshots", kGauge, "",                 \
    "Retired generations still held by readers.")                             \
  X(kResidentSeries, "kvmatch_resident_series", kGauge, "",                   \
    "Sessions in the catalog's open cache.")                                  \
  X(kResidentBytes, "kvmatch_resident_bytes", kGauge, "",                     \
    "Bytes held by open sessions and pinned retired generations.")            \
  X(kMemoryBudgetBytes, "kvmatch_memory_budget_bytes", kGauge, "",            \
    "The catalog's open-cache byte budget (0: unbounded).")                   \
  X(kIngestStateBytes, "kvmatch_ingest_state_bytes", kGauge, "",              \
    "Bytes of warm incremental-builder state.")                               \
  X(kJournalReplays, "kvmatch_journal_replays_total", kCounter, "",           \
    "Journaled commits rolled back or forward at the catalog's open.")        \
  X(kOrphansSwept, "kvmatch_orphans_swept_total", kCounter, "",               \
    "Orphaned namespaces swept at the catalog's open.")                       \
  X(kSeriesEvicted, "kvmatch_series_evicted_total", kCounter, "",             \
    "Sessions evicted from the open cache.")                                  \
  X(kStorageEntries, "kvmatch_storage_entries", kGauge, "",                   \
    "Keys held by the storage backend.")                                      \
  X(kStorageFileBytes, "kvmatch_storage_file_bytes", kGauge, "",              \
    "Bytes of the storage backend's files.")                                  \
  X(kStorageTables, "kvmatch_storage_tables", kGauge, "",                     \
    "SSTables in the LSM backend.")                                           \
  X(kStorageMemtableBytes, "kvmatch_storage_memtable_bytes", kGauge, "",      \
    "Bytes in the LSM backend's memtable.")                                   \
  X(kStorageTombstonesWritten, "kvmatch_storage_tombstones_written_total",    \
    kCounter, "", "Tombstones written by the LSM backend.")                   \
  X(kStorageFlushes, "kvmatch_storage_flushes_total", kCounter, "",           \
    "Memtable flushes of the LSM backend.")                                   \
  X(kStorageCompactions, "kvmatch_storage_compactions_total", kCounter, "",   \
    "Compactions of the LSM backend.")                                        \
  X(kStorageCompactionDropped, "kvmatch_storage_compaction_dropped_total",    \
    kCounter, "", "Entries dropped by the LSM backend's compactions.")        \
  X(kKvstoreOps, "kvmatch_kvstore_ops_total", kCounter, "op",                 \
    "Storage operations by op.")                                              \
  X(kKvstoreErrors, "kvmatch_kvstore_errors_total", kCounter, "op",           \
    "Storage operations that failed, by op (a Get miss is not a failure).")   \
  X(kKvstoreGetLatency, "kvmatch_kvstore_get_latency_ms", kHistogram, "",     \
    "Storage Get latency, in milliseconds.")                                  \
  X(kKvstorePutLatency, "kvmatch_kvstore_put_latency_ms", kHistogram, "",     \
    "Storage Put latency, in milliseconds.")                                  \
  X(kKvstoreDeleteLatency, "kvmatch_kvstore_delete_latency_ms", kHistogram,   \
    "", "Storage Delete latency, in milliseconds.")                           \
  X(kKvstoreDeleteRangeLatency, "kvmatch_kvstore_delete_range_latency_ms",    \
    kHistogram, "", "Storage DeleteRange latency, in milliseconds.")          \
  X(kKvstoreApplyLatency, "kvmatch_kvstore_apply_latency_ms", kHistogram,     \
    "", "Storage write-batch Apply latency, in milliseconds.")                \
  X(kKvstoreScanLatency, "kvmatch_kvstore_scan_latency_ms", kHistogram, "",   \
    "Storage Scan latency, in milliseconds.")                                 \
  X(kKvstoreFlushLatency, "kvmatch_kvstore_flush_latency_ms", kHistogram,     \
    "", "Storage Flush latency, in milliseconds.")                            \
  X(kKvstoreBytesRead, "kvmatch_kvstore_bytes_read_total", kCounter, "",      \
    "Key and value bytes read from storage.")                                 \
  X(kKvstoreBytesWritten, "kvmatch_kvstore_bytes_written_total", kCounter,    \
    "", "Key and value bytes written to storage.")                            \
  X(kKvstoreScanRows, "kvmatch_kvstore_scan_rows_total", kCounter, "",        \
    "Rows yielded by storage scans.")                                         \
  X(kKvstoreBatchOps, "kvmatch_kvstore_batch_ops", kHistogram, "",            \
    "Operations per applied write batch.")                                    \
  X(kEventsEmitted, "kvmatch_events_emitted_total", kCounter, "",             \
    "Structured events emitted.")                                             \
  X(kEvents, "kvmatch_events_total", kCounter, "type",                        \
    "Structured events emitted, by type.")                                    \
  X(kCoordShardConnected, "kvmatch_coord_shard_connected", kGauge, "shard",   \
    "1 while the coordinator holds a live connection to the shard.")

/// A metric family, named by its row in KVMATCH_METRIC_FAMILIES.
enum class Metric : int {
#define KVMATCH_METRIC_ID(id, name, type, labels, help) id,
  KVMATCH_METRIC_FAMILIES(KVMATCH_METRIC_ID)
#undef KVMATCH_METRIC_ID
};

struct MetricDef {
  Metric id;
  const char* name;
  MetricType type;
  const char* labels;  // comma-separated label keys; "" when unlabeled
  const char* help;
};

inline constexpr MetricDef kMetricTable[] = {
#define KVMATCH_METRIC_DEF(id, name, type, labels, help) \
  {Metric::id, name, MetricType::type, labels, help},
    KVMATCH_METRIC_FAMILIES(KVMATCH_METRIC_DEF)
#undef KVMATCH_METRIC_DEF
};

inline constexpr size_t kNumMetrics = std::size(kMetricTable);

/// The family named `name`, or nullptr.
const MetricDef* FindMetric(std::string_view name);

/// One epoch commit's measured breakdown, recorded by the Catalog.
struct CommitRecord {
  const char* kind = "";  // "create" | "append" | "replace"
  double total_ms = 0.0;
  double journal_ms = 0.0;  // intent-record write
  double data_ms = 0.0;     // chunk puts
  double index_ms = 0.0;    // γ-merge + index-row batches
  double header_ms = 0.0;   // header flip batch (SeriesStore header)
  double flip_ms = 0.0;     // directory-row flip + flush
  uint64_t chunk_rows = 0;
  uint64_t index_rows = 0;
  uint64_t bytes_written = 0;
  uint64_t batches = 0;
};

/// Latency distribution of a set of queries, in milliseconds. Percentiles
/// are derived from the log-bucketed histogram (within ~9% of exact).
struct LatencySummary {
  uint64_t count = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

LatencySummary Summarize(const LatencyHistogram::Snapshot& h);

/// Snapshot of one series' service-side counters.
struct SeriesStatsSnapshot {
  std::string series;
  uint64_t queries = 0;   // completed (ok or error), excludes rejections
  uint64_t errors = 0;
  LatencySummary latency;
  MatchStats match;       // aggregated over completed queries
};

/// One sample of a family: its label values, comma-separated in the order
/// of the family's label keys ("" when unlabeled), and its value.
struct MetricSample {
  std::string labels;
  double value = 0.0;
};

/// Point-in-time samples of every family, ready to render. The registry
/// fills what it records; the owners of other state (the query pool, the
/// catalog, the transport, the coordinator) add their families' samples
/// before rendering.
struct ServiceStatsSnapshot {
  /// Samples by family; an unlabeled family has at most one.
  std::array<std::vector<MetricSample>, kNumMetrics> samples;
  /// Histogram families that have data.
  std::map<Metric, LatencyHistogram::Snapshot> histograms;
  /// The per-series records behind the kvmatch_series_* families, sorted
  /// by name.
  std::vector<SeriesStatsSnapshot> series;

  /// Sets an unlabeled family's value.
  void Set(Metric m, double value);
  /// Appends a sample to a labeled family.
  void Add(Metric m, std::string labels, double value);
  /// The sample's value, 0 when the family has no such sample.
  double Value(Metric m, std::string_view labels = {}) const;
  /// The family's histogram, empty when it has none.
  const LatencyHistogram::Snapshot& Histogram(Metric m) const;
};

/// Renders a snapshot as a Prometheus text exposition: each family with
/// samples gets one `# HELP` and one `# TYPE` line followed by all of its
/// samples, in table order. Histograms print cumulative `_bucket{le=...}`
/// lines (empty buckets skipped, `+Inf` always) plus `_sum` and `_count`.
/// Label values are printed unescaped: series names are [A-Za-z0-9._-].
/// Served over the wire as a STATS response and over HTTP at /metrics.
std::string StatsToText(const ServiceStatsSnapshot& snapshot);

/// Thread-safe sink for per-request measurements. All record paths are
/// lock-free once a series has been seen (relaxed atomics + striped
/// histograms); only first touch of a new series and the per-series
/// ingest and epoch maps take a lock.
class StatsRegistry {
 public:
  StatsRegistry();

  /// Adds `n` to an unlabeled counter or gauge (a negative `n` lowers a
  /// gauge). Lock-free.
  void Add(Metric m, int64_t n = 1) {
    scalars_[static_cast<size_t>(m)].fetch_add(n, std::memory_order_relaxed);
  }
  /// Overwrites an unlabeled scalar whose owner counts it itself, such as
  /// the reactor's loop counters.
  void Set(Metric m, int64_t value) {
    scalars_[static_cast<size_t>(m)].store(value, std::memory_order_relaxed);
  }

  void RecordQuery(const std::string& series, double latency_ms,
                   const MatchStats& stats, bool ok);
  /// Ingest volume, recorded by the Catalog's write path.
  void RecordIngest(const std::string& series, uint64_t points,
                    uint64_t batches);
  /// One epoch commit's span breakdown.
  void RecordCommit(const CommitRecord& rec);
  /// Updates the per-series epoch gauge.
  void RecordEpochInstalled(const std::string& series, uint64_t epoch);
  /// Drops the series' epoch gauge and counts the drop. The ingest-points
  /// counter survives (it is lifetime volume, not live state).
  void RecordSeriesDropped(const std::string& series);

  /// Attaches the instrumented store's sink, which Snapshot() folds in.
  /// shared_ptr: the sink outlives the catalog.
  void AttachStorage(std::shared_ptr<KvStoreStats> storage);
  /// Attaches the event journal, whose per-type counters Snapshot() reads.
  /// Not owned; must outlive this registry's use.
  void AttachEventLog(EventLog* events);

  ServiceStatsSnapshot Snapshot() const;

  /// StatsToText(Snapshot()).
  std::string ToText() const;

 private:
  /// Atomic mirror of MatchStats: counters as relaxed uint64 atomics,
  /// phase wall times as integer nanoseconds (atomic<double> has no
  /// portable lock-free fetch_add).
  struct AtomicMatchStats {
    std::atomic<uint64_t> index_accesses{0};
    std::atomic<uint64_t> rows_fetched{0};
    std::atomic<uint64_t> intervals_fetched{0};
    std::atomic<uint64_t> bytes_fetched{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> candidate_positions{0};
    std::atomic<uint64_t> candidate_intervals{0};
    std::atomic<uint64_t> distance_calls{0};
    std::atomic<uint64_t> lb_pruned{0};
    std::atomic<uint64_t> constraint_pruned{0};
    std::atomic<uint64_t> phase1_ns{0};
    std::atomic<uint64_t> phase2_ns{0};

    void Add(const MatchStats& s);
    MatchStats Load() const;
  };

  struct PerSeries {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> errors{0};
    AtomicMatchStats match;
    LatencyHistogram latency;
  };

  static constexpr size_t kCommitKinds = 3;   // create, append, replace
  static constexpr size_t kCommitStages = 5;  // journal .. flip

  /// Shared-lock lookup; takes the exclusive lock only to insert.
  PerSeries* GetSeries(const std::string& series);

  const std::chrono::steady_clock::time_point start_;

  // One slot per family; only the unlabeled counters and gauges use
  // theirs. Signed so that a gauge's paired +1/-1 never wraps.
  std::array<std::atomic<int64_t>, kNumMetrics> scalars_{};
  std::array<std::atomic<uint64_t>, kCommitKinds> commits_{};
  // Stage times as integer nanoseconds.
  std::array<std::atomic<uint64_t>, kCommitStages> commit_stage_ns_{};
  LatencyHistogram all_latency_;  // across every series
  LatencyHistogram commit_latency_;

  mutable std::shared_mutex series_mu_;
  // shared_ptr so Snapshot() can't free a PerSeries out from under a
  // concurrent lock-free recorder.
  std::map<std::string, std::shared_ptr<PerSeries>> series_;

  // Cold administrative state: epoch gauges and per-series ingest totals.
  // Ingest is batched (the catalog's write path, not the query hot path),
  // so a plain mutex here is fine.
  mutable std::mutex gauge_mu_;
  std::map<std::string, uint64_t> epoch_gauges_;
  std::map<std::string, uint64_t> ingest_points_;
  std::shared_ptr<KvStoreStats> storage_;  // guarded by gauge_mu_
  EventLog* events_ = nullptr;             // guarded by gauge_mu_
};

}  // namespace kvmatch

#endif  // KVMATCH_SERVICE_SERVICE_STATS_H_
