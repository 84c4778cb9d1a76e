#include "net/protocol.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace kvmatch {
namespace net {

namespace {

bool ReadDouble(std::string_view* in, double* value) {
  if (in->size() < 8) return false;
  *value = DecodeDouble(in->data());
  in->remove_prefix(8);
  return true;
}

bool ReadByte(std::string_view* in, uint8_t* value) {
  if (in->empty()) return false;
  *value = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  return true;
}

Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed frame body: ") + what);
}

}  // namespace

uint32_t StatusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kNotFound: return 1;
    case StatusCode::kInvalidArgument: return 2;
    case StatusCode::kIOError: return 3;
    case StatusCode::kCorruption: return 4;
    case StatusCode::kNotSupported: return 5;
    case StatusCode::kOutOfRange: return 6;
    case StatusCode::kInternal: return 7;
    case StatusCode::kResourceExhausted: return 8;
    case StatusCode::kDeadlineExceeded: return 9;
    case StatusCode::kCancelled: return 10;
  }
  return 7;  // unknown codes degrade to Internal
}

StatusCode StatusCodeFromWire(uint32_t wire) {
  switch (wire) {
    case 0: return StatusCode::kOk;
    case 1: return StatusCode::kNotFound;
    case 2: return StatusCode::kInvalidArgument;
    case 3: return StatusCode::kIOError;
    case 4: return StatusCode::kCorruption;
    case 5: return StatusCode::kNotSupported;
    case 6: return StatusCode::kOutOfRange;
    case 7: return StatusCode::kInternal;
    case 8: return StatusCode::kResourceExhausted;
    case 9: return StatusCode::kDeadlineExceeded;
    case 10: return StatusCode::kCancelled;
  }
  return StatusCode::kInternal;
}

namespace {

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kNotFound: return Status::NotFound(std::move(msg));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kIOError: return Status::IOError(std::move(msg));
    case StatusCode::kCorruption: return Status::Corruption(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kOutOfRange: return Status::OutOfRange(std::move(msg));
    case StatusCode::kInternal: return Status::Internal(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(msg));
  }
  return Status::Internal(std::move(msg));
}

void PutStatus(const Status& status, std::string* body) {
  PutVarint32(body, StatusCodeToWire(status.code()));
  PutLengthPrefixed(body, status.message());
}

bool GetStatus(std::string_view* in, Status* out) {
  uint32_t code = 0;
  std::string_view message;
  if (!GetVarint32(in, &code)) return false;
  if (!GetLengthPrefixed(in, &message)) return false;
  *out = MakeStatus(StatusCodeFromWire(code), std::string(message));
  return true;
}

}  // namespace

// ---- Frame framing ----

void EncodeFrame(const Frame& frame, std::string* wire) {
  std::string payload;
  payload.reserve(kPayloadPrologueBytes + frame.body.size());
  payload.push_back(static_cast<char>(frame.type));
  PutFixed64(&payload, frame.request_id);
  payload.append(frame.body);

  PutFixed32(wire, static_cast<uint32_t>(payload.size()));
  PutFixed32(wire, crc32c::Mask(crc32c::Value(payload)));
  wire->append(payload);
}

FrameDecoder::FrameDecoder(size_t max_payload_bytes)
    : max_payload_bytes_(max_payload_bytes) {}

void FrameDecoder::Feed(std::string_view data) {
  buffer_.append(data.data(), data.size());
}

FrameDecoder::Event FrameDecoder::Next(Frame* out, Status* error) {
  if (fatal_) {
    *error = Status::Corruption("stream already failed");
    return Event::kFatal;
  }
  // Drop the consumed prefix once it dominates the buffer, so a long-lived
  // connection does not accumulate every byte it has ever seen.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const size_t available = buffer_.size() - pos_;
  if (available < kFrameHeaderBytes) return Event::kNeedMore;

  const char* header = buffer_.data() + pos_;
  const uint32_t length = DecodeFixed32(header);
  if (length > max_payload_bytes_) {
    fatal_ = true;
    *error = Status::InvalidArgument(
        "frame payload of " + std::to_string(length) +
        " bytes exceeds the " + std::to_string(max_payload_bytes_) +
        "-byte limit");
    return Event::kFatal;
  }
  if (available < kFrameHeaderBytes + length) return Event::kNeedMore;

  const std::string_view payload(header + kFrameHeaderBytes, length);
  pos_ += kFrameHeaderBytes + length;  // frame consumed, valid or not

  const uint32_t expected = crc32c::Unmask(DecodeFixed32(header + 4));
  if (expected != crc32c::Value(payload)) {
    *error = Status::Corruption("frame CRC mismatch");
    return Event::kBadFrame;
  }
  if (payload.size() < kPayloadPrologueBytes) {
    *error = Status::Corruption("frame payload shorter than its prologue");
    return Event::kBadFrame;
  }
  out->type = static_cast<FrameType>(static_cast<uint8_t>(payload[0]));
  out->request_id = DecodeFixed64(payload.data() + 1);
  out->body.assign(payload.data() + kPayloadPrologueBytes,
                   payload.size() - kPayloadPrologueBytes);
  return Event::kFrame;
}

// ---- Query request ----

void EncodeQueryRequestBody(const WireQueryRequest& wire_request,
                            std::string* body) {
  const QueryRequest& r = wire_request.request;
  PutLengthPrefixed(body, r.series);
  PutVarint32(body, static_cast<uint32_t>(r.params.type));
  PutDouble(body, r.params.epsilon);
  PutDouble(body, r.params.alpha);
  PutDouble(body, r.params.beta);
  PutVarint64(body, r.params.rho);
  PutVarint64(body, r.top_k);
  PutVarint64(body, r.topk_options.exclusion_zone);
  PutDouble(body, r.timeout_ms);
  body->push_back(r.collect_trace ? 1 : 0);
  const auto reference = wire_request.Reference();
  body->push_back(reference.has_value() ? 1 : 0);
  if (reference.has_value()) {
    PutVarint64(body, reference->offset);
    PutVarint64(body, reference->length);
  } else {
    PutVarint64(body, r.query.size());
    for (double v : r.query) PutDouble(body, v);
  }
}

Status DecodeQueryRequestBody(std::string_view body, WireQueryRequest* out) {
  *out = WireQueryRequest();
  QueryRequest& r = out->request;
  std::string_view series;
  if (!GetLengthPrefixed(&body, &series)) return Malformed("series name");
  r.series.assign(series);
  uint32_t type = 0;
  if (!GetVarint32(&body, &type)) return Malformed("query type");
  if (type > static_cast<uint32_t>(QueryType::kRsmL1)) {
    return Status::InvalidArgument("unknown query type " +
                                   std::to_string(type));
  }
  r.params.type = static_cast<QueryType>(type);
  if (!ReadDouble(&body, &r.params.epsilon)) return Malformed("epsilon");
  if (!ReadDouble(&body, &r.params.alpha)) return Malformed("alpha");
  if (!ReadDouble(&body, &r.params.beta)) return Malformed("beta");
  uint64_t rho = 0, top_k = 0;
  if (!GetVarint64(&body, &rho)) return Malformed("rho");
  if (!GetVarint64(&body, &top_k)) return Malformed("top_k");
  r.params.rho = static_cast<size_t>(rho);
  r.top_k = static_cast<size_t>(top_k);
  uint64_t exclusion = 0;
  if (!GetVarint64(&body, &exclusion)) return Malformed("topk exclusion");
  r.topk_options.exclusion_zone = static_cast<size_t>(exclusion);
  if (!ReadDouble(&body, &r.timeout_ms)) return Malformed("timeout");
  uint8_t trace_flag = 0;
  if (!ReadByte(&body, &trace_flag)) return Malformed("trace flag");
  if (trace_flag > 1) return Malformed("trace flag");
  r.collect_trace = trace_flag == 1;
  uint8_t kind = 0;
  if (!ReadByte(&body, &kind)) return Malformed("query kind");
  if (kind == 1) {
    out->by_reference = true;
    if (!GetVarint64(&body, &out->ref_offset)) return Malformed("ref offset");
    if (!GetVarint64(&body, &out->ref_length)) return Malformed("ref length");
  } else if (kind == 0) {
    uint64_t count = 0;
    if (!GetVarint64(&body, &count)) return Malformed("query length");
    // Divide, don't multiply: count is attacker-controlled and count * 8
    // can wrap back onto the actual body size.
    if (count != body.size() / 8 || body.size() % 8 != 0) {
      return Malformed("query values");
    }
    r.query.resize(static_cast<size_t>(count));
    for (auto& v : r.query) ReadDouble(&body, &v);
  } else {
    return Malformed("query kind");
  }
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Query response ----

void EncodeQueryResponseBody(const QueryResponse& response,
                             std::string* body) {
  EncodeQueryResponsePrefix(response, body);
  AppendQueryResponseTrace(response.trace.get(), body);
}

namespace {

void PutMatchStats(const MatchStats& s, std::string* body) {
  PutVarint64(body, s.probe.index_accesses);
  PutVarint64(body, s.probe.rows_fetched);
  PutVarint64(body, s.probe.intervals_fetched);
  PutVarint64(body, s.probe.bytes_fetched);
  PutVarint64(body, s.probe.cache_hits);
  PutVarint64(body, s.candidate_positions);
  PutVarint64(body, s.candidate_intervals);
  PutVarint64(body, s.distance_calls);
  PutVarint64(body, s.lb_pruned);
  PutVarint64(body, s.constraint_pruned);
  PutDouble(body, s.phase1_ms);
  PutDouble(body, s.phase2_ms);
}

Status GetMatchStats(std::string_view* body, MatchStats* s) {
  uint64_t* counters[] = {&s->probe.index_accesses, &s->probe.rows_fetched,
                          &s->probe.intervals_fetched,
                          &s->probe.bytes_fetched, &s->probe.cache_hits,
                          &s->candidate_positions,  &s->candidate_intervals,
                          &s->distance_calls,       &s->lb_pruned,
                          &s->constraint_pruned};
  for (uint64_t* c : counters) {
    if (!GetVarint64(body, c)) return Malformed("stats counter");
  }
  if (!ReadDouble(body, &s->phase1_ms)) return Malformed("phase1 time");
  if (!ReadDouble(body, &s->phase2_ms)) return Malformed("phase2 time");
  return Status::OK();
}

}  // namespace

void EncodeQueryResponsePrefix(const QueryResponse& response,
                               std::string* body) {
  PutStatus(response.status, body);
  PutDouble(body, response.latency_ms);
  PutVarint64(body, response.matches.size());
  for (const auto& m : response.matches) {
    PutVarint64(body, m.offset);
    PutDouble(body, m.distance);
  }
  PutMatchStats(response.stats, body);
}

void AppendQueryResponseTrace(const QueryTrace* trace, std::string* body) {
  if (trace == nullptr) {
    body->push_back(0);
    return;
  }
  body->push_back(1);
  const std::vector<TraceSpan> spans = trace->spans();
  PutVarint64(body, spans.size());
  for (const TraceSpan& span : spans) {
    PutLengthPrefixed(body, span.name);
    PutDouble(body, span.start_ms);
    PutDouble(body, span.dur_ms);
    PutVarint64(body, span.worker);
    PutVarint64(body, span.args.size());
    for (const auto& [key, value] : span.args) {
      PutLengthPrefixed(body, key);
      PutVarint64(body, value);
    }
  }
}

namespace {

// Minimum encoded size of one span: 1B name length + 8B start + 8B dur +
// 1B worker + 1B arg count. Bounds attacker-controlled span counts.
constexpr size_t kMinSpanBytes = 19;

Status DecodeResponseTrace(std::string_view* body,
                           std::shared_ptr<QueryTrace>* out) {
  uint8_t has_trace = 0;
  if (!ReadByte(body, &has_trace)) return Malformed("trace flag");
  if (has_trace == 0) return Status::OK();
  if (has_trace != 1) return Malformed("trace flag");
  uint64_t count = 0;
  if (!GetVarint64(body, &count)) return Malformed("trace span count");
  if (count > body->size() / kMinSpanBytes) {
    return Malformed("trace span count vs body size");
  }
  *out = std::make_shared<QueryTrace>();
  for (uint64_t i = 0; i < count; ++i) {
    TraceSpan span;
    std::string_view name;
    if (!GetLengthPrefixed(body, &name)) return Malformed("span name");
    span.name.assign(name);
    if (!ReadDouble(body, &span.start_ms)) return Malformed("span start");
    if (!ReadDouble(body, &span.dur_ms)) return Malformed("span duration");
    if (!GetVarint64(body, &span.worker)) return Malformed("span worker");
    uint64_t nargs = 0;
    if (!GetVarint64(body, &nargs)) return Malformed("span arg count");
    // Each arg needs >= 2 encoded bytes; bound before reserving.
    if (nargs > body->size() / 2) {
      return Malformed("span arg count vs body size");
    }
    span.args.reserve(static_cast<size_t>(nargs));
    for (uint64_t a = 0; a < nargs; ++a) {
      std::string_view key;
      uint64_t value = 0;
      if (!GetLengthPrefixed(body, &key)) return Malformed("span arg key");
      if (!GetVarint64(body, &value)) return Malformed("span arg value");
      span.args.emplace_back(std::string(key), value);
    }
    (*out)->AddSpanAt(std::move(span));
  }
  return Status::OK();
}

}  // namespace

Status DecodeQueryResponseBody(std::string_view body, QueryResponse* out) {
  *out = QueryResponse();
  if (!GetStatus(&body, &out->status)) return Malformed("status");
  if (!ReadDouble(&body, &out->latency_ms)) return Malformed("latency");
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) return Malformed("match count");
  // A match needs >= 9 encoded bytes; reject counts the body cannot hold
  // before allocating for them.
  if (count > body.size() / 9) return Malformed("match count vs body size");
  out->matches.resize(static_cast<size_t>(count));
  for (auto& m : out->matches) {
    uint64_t offset = 0;
    if (!GetVarint64(&body, &offset)) return Malformed("match offset");
    m.offset = static_cast<size_t>(offset);
    if (!ReadDouble(&body, &m.distance)) return Malformed("match distance");
  }
  KVMATCH_RETURN_NOT_OK(GetMatchStats(&body, &out->stats));
  KVMATCH_RETURN_NOT_OK(DecodeResponseTrace(&body, &out->trace));
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Streamed match parts ----

void EncodeMatchPartBody(std::span<const MatchResult> matches,
                         std::string* body) {
  PutVarint64(body, matches.size());
  for (const auto& m : matches) {
    PutVarint64(body, m.offset);
    PutDouble(body, m.distance);
  }
}

Status DecodeMatchPartBody(std::string_view body,
                           std::vector<MatchResult>* out) {
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) return Malformed("part match count");
  // A match needs >= 9 encoded bytes; reject counts the body cannot hold
  // before allocating for them.
  if (count > body.size() / 9) return Malformed("part count vs body size");
  out->reserve(out->size() + static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    MatchResult m;
    uint64_t offset = 0;
    if (!GetVarint64(&body, &offset)) return Malformed("part match offset");
    m.offset = static_cast<size_t>(offset);
    if (!ReadDouble(&body, &m.distance)) {
      return Malformed("part match distance");
    }
    out->push_back(m);
  }
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Error ----

void EncodeErrorBody(const Status& status, std::string* body) {
  PutStatus(status, body);
}

Status DecodeErrorBody(std::string_view body, Status* out) {
  if (!GetStatus(&body, out)) return Malformed("error status");
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Series listing ----

void EncodeListResponseBody(const std::vector<SeriesInfo>& series,
                            std::string* body) {
  PutVarint64(body, series.size());
  for (const auto& s : series) {
    PutLengthPrefixed(body, s.name);
    PutVarint64(body, s.length);
  }
}

Status DecodeListResponseBody(std::string_view body,
                              std::vector<SeriesInfo>* out) {
  out->clear();
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) return Malformed("series count");
  // Each entry needs >= 2 encoded bytes; bound before reserving.
  if (count > body.size() / 2) return Malformed("series count vs body size");
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    SeriesInfo info;
    std::string_view name;
    if (!GetLengthPrefixed(&body, &name)) return Malformed("series name");
    info.name.assign(name);
    if (!GetVarint64(&body, &info.length)) return Malformed("series length");
    out->push_back(std::move(info));
  }
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Remote ingest ----

void EncodeIngestRequestBody(const WireIngestRequest& request,
                             std::string* body) {
  PutLengthPrefixed(body, request.series);
  PutVarint64(body, request.values.size());
  for (double v : request.values) PutDouble(body, v);
}

Status DecodeIngestRequestBody(std::string_view body,
                               WireIngestRequest* out) {
  *out = WireIngestRequest();
  std::string_view series;
  if (!GetLengthPrefixed(&body, &series)) return Malformed("series name");
  out->series.assign(series);
  uint64_t count = 0;
  if (!GetVarint64(&body, &count)) return Malformed("value count");
  // Divide, don't multiply: count is attacker-controlled and count * 8
  // can wrap back onto the actual body size.
  if (count != body.size() / 8 || body.size() % 8 != 0) {
    return Malformed("ingest values");
  }
  out->values.resize(static_cast<size_t>(count));
  for (auto& v : out->values) ReadDouble(&body, &v);
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

void EncodeIngestResponseBody(const IngestAck& ack, std::string* body) {
  PutVarint64(body, ack.epoch);
  PutVarint64(body, ack.length);
}

Status DecodeIngestResponseBody(std::string_view body, IngestAck* out) {
  *out = IngestAck();
  if (!GetVarint64(&body, &out->epoch)) return Malformed("epoch");
  if (!GetVarint64(&body, &out->length)) return Malformed("series length");
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Shard topology ----

void EncodeShardInfoBody(const ShardInfo& info, std::string* body) {
  PutVarint32(body, info.shard_id);
  PutVarint32(body, info.num_shards);
  PutFixed64(body, info.map_fingerprint);
  PutVarint64(body, info.series_count);
}

Status DecodeShardInfoBody(std::string_view body, ShardInfo* out) {
  *out = ShardInfo();
  if (!GetVarint32(&body, &out->shard_id)) return Malformed("shard id");
  if (!GetVarint32(&body, &out->num_shards)) return Malformed("shard count");
  if (body.size() < 8) return Malformed("map fingerprint");
  out->map_fingerprint = DecodeFixed64(body.data());
  body.remove_prefix(8);
  if (!GetVarint64(&body, &out->series_count)) {
    return Malformed("series count");
  }
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Federated response ----

void EncodeFederatedResponseBody(const FederatedResponse& response,
                                 std::string* body) {
  PutStatus(response.status, body);
  PutDouble(body, response.latency_ms);
  PutVarint32(body, response.shards_total);
  PutVarint32(body, response.shards_ok);
  PutVarint64(body, response.shard_errors.size());
  for (const auto& [shard, status] : response.shard_errors) {
    PutVarint32(body, shard);
    PutStatus(status, body);
  }
  PutVarint64(body, response.groups.size());
  for (const auto& group : response.groups) {
    PutLengthPrefixed(body, group.series);
    PutVarint64(body, group.matches.size());
    for (const auto& m : group.matches) {
      PutVarint64(body, m.offset);
      PutDouble(body, m.distance);
    }
  }
  PutMatchStats(response.stats, body);
  AppendQueryResponseTrace(response.trace.get(), body);
}

Status DecodeFederatedResponseBody(std::string_view body,
                                   FederatedResponse* out) {
  *out = FederatedResponse();
  if (!GetStatus(&body, &out->status)) return Malformed("status");
  if (!ReadDouble(&body, &out->latency_ms)) return Malformed("latency");
  if (!GetVarint32(&body, &out->shards_total)) {
    return Malformed("shard total");
  }
  if (!GetVarint32(&body, &out->shards_ok)) return Malformed("shards ok");
  uint64_t nerrors = 0;
  if (!GetVarint64(&body, &nerrors)) return Malformed("shard error count");
  // Each error needs >= 3 encoded bytes; bound before reserving.
  if (nerrors > body.size() / 3) {
    return Malformed("shard error count vs body size");
  }
  out->shard_errors.reserve(static_cast<size_t>(nerrors));
  for (uint64_t i = 0; i < nerrors; ++i) {
    uint32_t shard = 0;
    Status carried;
    if (!GetVarint32(&body, &shard)) return Malformed("shard error id");
    if (!GetStatus(&body, &carried)) return Malformed("shard error status");
    out->shard_errors.emplace_back(shard, std::move(carried));
  }
  uint64_t ngroups = 0;
  if (!GetVarint64(&body, &ngroups)) return Malformed("group count");
  // Each group needs >= 2 encoded bytes; bound before reserving.
  if (ngroups > body.size() / 2) {
    return Malformed("group count vs body size");
  }
  out->groups.reserve(static_cast<size_t>(ngroups));
  for (uint64_t g = 0; g < ngroups; ++g) {
    FederatedSeriesMatches group;
    std::string_view name;
    if (!GetLengthPrefixed(&body, &name)) return Malformed("group series");
    group.series.assign(name);
    uint64_t count = 0;
    if (!GetVarint64(&body, &count)) return Malformed("group match count");
    // A match needs >= 9 encoded bytes; reject counts the body cannot
    // hold before allocating for them.
    if (count > body.size() / 9) {
      return Malformed("group match count vs body size");
    }
    group.matches.resize(static_cast<size_t>(count));
    for (auto& m : group.matches) {
      uint64_t offset = 0;
      if (!GetVarint64(&body, &offset)) return Malformed("group offset");
      m.offset = static_cast<size_t>(offset);
      if (!ReadDouble(&body, &m.distance)) {
        return Malformed("group distance");
      }
    }
    out->groups.push_back(std::move(group));
  }
  KVMATCH_RETURN_NOT_OK(GetMatchStats(&body, &out->stats));
  KVMATCH_RETURN_NOT_OK(DecodeResponseTrace(&body, &out->trace));
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

// ---- Deadline budgets ----

double RemainingBudgetMs(double timeout_ms,
                         std::chrono::steady_clock::time_point received) {
  if (timeout_ms <= 0.0) return timeout_ms;  // 0 = none, <0 = expired
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - received)
          .count();
  const double remaining = timeout_ms - elapsed_ms;
  // Never round an almost-spent budget back to the "no deadline"
  // sentinel: an expired budget must stay expired.
  return remaining == 0.0 ? -1.0 : remaining;
}

}  // namespace net
}  // namespace kvmatch
