#include "service/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace kvmatch {

void QueryTrace::AddSpan(const char* name, Clock::time_point t0,
                         Clock::time_point t1,
                         std::vector<std::pair<std::string, uint64_t>> args) {
  TraceSpan span;
  span.name = name;
  span.start_ms = MsSinceOrigin(t0);
  span.dur_ms = std::max(0.0, MsSinceOrigin(t1) - span.start_ms);
  span.args = std::move(args);
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t worker = workers_.size();
  for (const auto& [id, w] : workers_) {
    if (id == tid) {
      worker = w;
      break;
    }
  }
  if (worker == workers_.size()) workers_.emplace_back(tid, worker);
  span.worker = worker;
  spans_.push_back(std::move(span));
}

void QueryTrace::AddSpanAt(TraceSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> QueryTrace::spans() const {
  std::vector<TraceSpan> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start_ms < b.start_ms;
                   });
  return out;
}

StageBreakdown ComputeStageBreakdown(const QueryTrace& trace) {
  StageBreakdown b;
  // Verify slices overlap under parallel verify; take the union extent.
  double verify_lo = 0.0, verify_hi = 0.0;
  bool have_verify = false;
  for (const TraceSpan& s : trace.spans()) {
    if (s.name == kSpanQueue) {
      b.queue_ms += s.dur_ms;
    } else if (s.name == kSpanProbe || s.name == kSpanSeed) {
      b.probe_ms += s.dur_ms;
    } else if (s.name == kSpanSerialize) {
      b.serialize_ms += s.dur_ms;
    } else if (s.name == kSpanVerify) {
      const double lo = s.start_ms, hi = s.start_ms + s.dur_ms;
      if (!have_verify) {
        verify_lo = lo;
        verify_hi = hi;
        have_verify = true;
      } else {
        verify_lo = std::min(verify_lo, lo);
        verify_hi = std::max(verify_hi, hi);
      }
    }
  }
  if (have_verify) b.verify_ms = verify_hi - verify_lo;
  return b;
}

namespace {

void AppendDouble(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

void AppendSpanArgsJson(const TraceSpan& span, std::string* out) {
  *out += "{";
  bool first = true;
  for (const auto& [key, value] : span.args) {
    if (!first) *out += ",";
    first = false;
    *out += "\"";
    *out += JsonEscape(key);
    *out += "\":";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    *out += buf;
  }
  *out += "}";
}

}  // namespace

void AppendChromeTraceEvents(const QueryTrace& trace, uint64_t pid,
                             std::string* out) {
  bool first = out->empty() || out->back() == '[';
  for (const TraceSpan& span : trace.spans()) {
    if (!first) *out += ",";
    first = false;
    *out += "{\"name\":\"";
    *out += JsonEscape(span.name);
    *out += "\",\"ph\":\"X\",\"pid\":";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, pid);
    *out += buf;
    *out += ",\"tid\":";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, span.worker);
    *out += buf;
    *out += ",\"ts\":";
    AppendDouble(span.start_ms * 1000.0, out);  // chrome wants µs
    *out += ",\"dur\":";
    AppendDouble(span.dur_ms * 1000.0, out);
    *out += ",\"args\":";
    AppendSpanArgsJson(span, out);
    *out += "}";
  }
}

std::string TraceToChromeJson(const QueryTrace& trace) {
  std::string out = "{\"traceEvents\":[";
  AppendChromeTraceEvents(trace, 0, &out);
  out += "]}";
  return out;
}

std::string TraceSpansJson(const QueryTrace& trace) {
  std::string out = "[";
  bool first = true;
  for (const TraceSpan& span : trace.spans()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(span.name);
    out += "\",\"start_ms\":";
    AppendDouble(span.start_ms, &out);
    out += ",\"dur_ms\":";
    AppendDouble(span.dur_ms, &out);
    out += ",\"worker\":";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, span.worker);
    out += buf;
    out += ",\"args\":";
    AppendSpanArgsJson(span, &out);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace kvmatch
