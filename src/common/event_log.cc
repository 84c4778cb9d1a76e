#include "common/event_log.h"

#include <chrono>
#include <cstdio>

namespace kvmatch {

// Single definition of the escaper shared by the trace exporters
// (service/trace.h declares it too): the event log sits below the service
// layer, so the definition lives here.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

uint64_t WallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string RenderLine(const Event& event, uint64_t seq, uint64_t ts_ms) {
  std::string out;
  out.reserve(128);
  out += "{\"seq\":" + std::to_string(seq);
  out += ",\"ts_ms\":" + std::to_string(ts_ms);
  out += ",\"event\":\"" + JsonEscape(event.type) + "\"";
  if (!event.series.empty()) {
    out += ",\"series\":\"" + JsonEscape(event.series) + "\"";
  }
  for (const auto& [name, value] : event.num) {
    out += ",\"" + name + "\":" + std::to_string(value);
  }
  for (const auto& [name, value] : event.fnum) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out += ",\"" + name + "\":" + buf;
  }
  for (const auto& [name, value] : event.str) {
    out += ",\"" + name + "\":\"" + JsonEscape(value) + "\"";
  }
  for (const auto& [name, value] : event.json) {
    out += ",\"" + name + "\":" + value;
  }
  out += "}";
  return out;
}

}  // namespace

EventLog::EventLog(size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

void EventLog::SetSink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

void EventLog::Emit(const Event& event) {
  const uint64_t ts_ms = WallClockMs();
  std::lock_guard<std::mutex> lock(mu_);
  std::string line = RenderLine(event, next_seq_++, ts_ms);
  ++total_;
  ++counts_[event.type];
  if (sink_) sink_(line);
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(std::move(line));
  } else {
    ring_[ring_next_] = std::move(line);
    ring_next_ = (ring_next_ + 1) % ring_capacity_;
  }
}

std::vector<std::string> EventLog::RingLines() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(ring_.size());
  if (ring_.size() < ring_capacity_) {
    out = ring_;  // never wrapped: insertion order is oldest-first
  } else {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(ring_next_ + i) % ring_capacity_]);
    }
  }
  return out;
}

std::string EventLog::DumpJsonLines() const {
  std::string out;
  for (const auto& line : RingLines()) {
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> EventLog::CountsByType() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::pair<std::string, uint64_t>>(counts_.begin(),
                                                       counts_.end());
}

uint64_t EventLog::TotalEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

}  // namespace kvmatch
