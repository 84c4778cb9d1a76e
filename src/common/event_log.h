// EventLog: a structured journal for the storage/ingest side of the
// engine — the discrete, rare-but-important happenings that counters and
// histograms flatten away: epoch commits, crash-recovery roll-backs and
// roll-forwards, orphan sweeps, LRU evictions, MiniKv compactions, slow
// commits.
//
// Every event renders as one self-contained JSON line (JSONL), so the log
// is greppable and machine-parseable without a reader library. Two sinks:
//
//   * an optional streaming sink (SetSink) that receives each line as it
//     is emitted — the CLI points it at a file for `serve --event-log`;
//   * a fixed-size in-memory ring (the "flight recorder") that always
//     keeps the most recent `ring_capacity` lines, dumpable after the
//     fact — on Server::Stop, from tests, or when diagnosing an incident
//     whose beginning predates anyone watching.
//
// Counters by event type feed the Prometheus exposition
// (kvmatch_events_total{type="..."}); ResetCounters() rebases them for
// `stats --watch` deltas without erasing the flight recorder.
//
// Thread-safe: events come from ingest commits, purge-on-release threads
// and compactions concurrently. Emission takes a plain mutex — events are
// orders of magnitude rarer than the lock-free hot-path counters, so
// contention is irrelevant.
#ifndef KVMATCH_COMMON_EVENT_LOG_H_
#define KVMATCH_COMMON_EVENT_LOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace kvmatch {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
/// Defined here; also declared in service/trace.h for the trace exporters.
std::string JsonEscape(const std::string& s);

/// One discrete happening. `type` keys the counters and the rendered
/// "event" field; `series` (optional) names the affected series; numeric,
/// string and pre-rendered JSON fields follow as JSON members (numbers,
/// then strings, then JSON, each kind in insertion order). Field names
/// must be JSON-identifier-safe ([A-Za-z0-9_]); string values are
/// escaped, JSON values are appended verbatim and must be valid JSON.
struct Event {
  std::string type;
  std::string series;
  std::vector<std::pair<std::string, uint64_t>> num = {};
  std::vector<std::pair<std::string, double>> fnum = {};
  std::vector<std::pair<std::string, std::string>> str = {};
  std::vector<std::pair<std::string, std::string>> json = {};

  Event& Num(std::string name, uint64_t value) {
    num.emplace_back(std::move(name), value);
    return *this;
  }
  Event& FNum(std::string name, double value) {
    fnum.emplace_back(std::move(name), value);
    return *this;
  }
  Event& Str(std::string name, std::string value) {
    str.emplace_back(std::move(name), std::move(value));
    return *this;
  }
  Event& Json(std::string name, std::string rendered) {
    json.emplace_back(std::move(name), std::move(rendered));
    return *this;
  }
};

// Canonical event types. Everything downstream (tests, the README schema
// table, dashboards) keys off these strings.
inline constexpr const char kEventEpochCommit[] = "epoch_commit";
inline constexpr const char kEventSlowCommit[] = "slow_commit";
inline constexpr const char kEventRecoveryRollback[] = "recovery_rollback";
inline constexpr const char kEventRecoveryRollforward[] =
    "recovery_rollforward";
inline constexpr const char kEventOrphanSweep[] = "orphan_sweep";
inline constexpr const char kEventEviction[] = "eviction";
inline constexpr const char kEventCompaction[] = "compaction";
inline constexpr const char kEventSeriesDrop[] = "series_drop";
/// A served query at or past the server's slow-query threshold, with its
/// trace's span array.
inline constexpr const char kEventSlowQuery[] = "slow_query";

class EventLog {
 public:
  static constexpr size_t kDefaultRingCapacity = 1024;

  explicit EventLog(size_t ring_capacity = kDefaultRingCapacity);

  /// Streaming sink, called under the log's mutex with each rendered line
  /// (no trailing newline) as it is emitted. Must not call back into this
  /// EventLog. Pass nullptr to detach.
  void SetSink(std::function<void(const std::string&)> sink);

  /// Renders `event` to a JSON line, appends it to the ring (evicting the
  /// oldest line when full), bumps the per-type counter and forwards to
  /// the sink.
  void Emit(const Event& event);

  /// The flight recorder's current contents, oldest first.
  std::vector<std::string> RingLines() const;

  /// RingLines() joined with '\n' (trailing newline included; empty
  /// string when no events were recorded).
  std::string DumpJsonLines() const;

  /// Per-type emission counts since construction or the last
  /// ResetCounters(), sorted by type.
  std::vector<std::pair<std::string, uint64_t>> CountsByType() const;

  /// Total events since construction or the last ResetCounters().
  uint64_t TotalEvents() const;

  /// Rebases the counters (stats --watch deltas). The flight-recorder
  /// ring and its sequence numbers are preserved: a stats rebase must not
  /// erase the incident history.
  void ResetCounters();

  size_t ring_capacity() const { return ring_capacity_; }

 private:
  const size_t ring_capacity_;

  mutable std::mutex mu_;
  std::function<void(const std::string&)> sink_;
  std::vector<std::string> ring_;  // wraps at ring_capacity_
  size_t ring_next_ = 0;           // insertion slot once the ring is full
  uint64_t next_seq_ = 0;          // monotonic, survives ResetCounters
  uint64_t total_ = 0;
  std::map<std::string, uint64_t> counts_;
};

}  // namespace kvmatch

#endif  // KVMATCH_COMMON_EVENT_LOG_H_
