// Per-request query tracing: timestamped spans for every stage of the
// two-phase pipeline (queue wait, phase-1 probe, each verify slice,
// result serialization), collected only when a request asks for it.
//
// A QueryTrace is owned by the QueryService for the lifetime of one
// request and referenced (as a nullable pointer on ExecContext) from the
// executor's hot loops — when tracing is off the hook is a single null
// check. Span start/end times are expressed in milliseconds relative to
// the trace origin (normally the moment the request was enqueued), so a
// trace serialized over the wire is meaningful without clock agreement
// between client and server.
//
// Exporters: TraceToChromeJson() produces a chrome://tracing /
// ui.perfetto.dev document; TraceSpansJson() renders the span array the
// server's slow_query events carry; ComputeStageBreakdown() collapses
// the spans into queue/probe/verify/serialize totals for CLI display.
#ifndef KVMATCH_SERVICE_TRACE_H_
#define KVMATCH_SERVICE_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace kvmatch {

// Canonical span names. Everything downstream (slow-query log parsing,
// the CLI breakdown, tests) keys off these strings.
inline constexpr const char kSpanQueue[] = "queue";
inline constexpr const char kSpanProbe[] = "probe";
inline constexpr const char kSpanVerify[] = "verify";
inline constexpr const char kSpanSerialize[] = "serialize";

struct TraceSpan {
  std::string name;
  double start_ms = 0.0;  // relative to the trace origin
  double dur_ms = 0.0;
  uint64_t worker = 0;  // dense per-trace id; slices from different
                        // threads get different ids
  std::vector<std::pair<std::string, uint64_t>> args;
};

class QueryTrace {
 public:
  using Clock = std::chrono::steady_clock;

  QueryTrace() : origin_(Clock::now()) {}
  explicit QueryTrace(Clock::time_point origin) : origin_(origin) {}

  Clock::time_point origin() const { return origin_; }

  /// Record a span covering [t0, t1]. Thread-safe: verify slices report
  /// concurrently from pool workers. The calling thread is mapped to a
  /// dense worker id (0, 1, ...) in first-report order.
  void AddSpan(const char* name, Clock::time_point t0, Clock::time_point t1,
               std::vector<std::pair<std::string, uint64_t>> args = {});

  /// Append a fully-formed span (wire decode, tests).
  void AddSpanAt(TraceSpan span);

  /// Spans sorted by start time (ties broken by insertion order).
  std::vector<TraceSpan> spans() const;

  double MsSinceOrigin(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - origin_).count();
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::vector<std::pair<std::thread::id, uint64_t>> workers_;
};

/// Aggregate per-stage wall time. Verify is the union of the (possibly
/// overlapping) slice spans, not their sum, so under parallel verify the
/// stages still add up to roughly the request latency.
struct StageBreakdown {
  double queue_ms = 0.0;
  double probe_ms = 0.0;
  double verify_ms = 0.0;
  double serialize_ms = 0.0;

  double TotalMs() const {
    return queue_ms + probe_ms + verify_ms + serialize_ms;
  }
};

StageBreakdown ComputeStageBreakdown(const QueryTrace& trace);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
/// Defined in common/event_log.cc (the event journal shares it).
std::string JsonEscape(const std::string& s);

/// chrome://tracing document: {"traceEvents":[...]} with complete ("X")
/// events, µs timestamps, tid = the span's worker id.
std::string TraceToChromeJson(const QueryTrace& trace);

/// Append this trace's events (without the enclosing document) to `out`,
/// using `pid` to separate multiple queries in one combined document.
void AppendChromeTraceEvents(const QueryTrace& trace, uint64_t pid,
                             std::string* out);

/// The spans as one JSON array, the `spans` member of a slow_query event:
/// [{"name":...,"start_ms":...,"dur_ms":...,"worker":...,"args":{...}},...]
std::string TraceSpansJson(const QueryTrace& trace);

}  // namespace kvmatch

#endif  // KVMATCH_SERVICE_TRACE_H_
