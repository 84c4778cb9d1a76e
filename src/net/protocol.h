// Wire protocol for the network front-end: length-prefixed, CRC-guarded
// binary frames carrying QueryService requests and responses over a byte
// stream.
//
// Frame layout (all integers little-endian, via common/coding):
//
//   [4B payload length] [4B masked CRC32C of payload] [payload]
//   payload = [1B frame type] [8B request id] [type-specific body]
//
// Request ids are chosen by the client and echoed by the server, so a
// client may pipeline many requests on one connection and match the
// responses as they stream back out of order. Non-OK Status results
// travel as typed kError frames carrying the StatusCode (NotFound,
// ResourceExhausted, DeadlineExceeded, ...) so the client reconstructs
// the same Status the in-process API would have returned.
//
// A query may carry its values literally, or reference a subsequence
// (offset, length) of the target series that the server extracts — the
// remote equivalent of the CLI's qoffset/qlen convention, which keeps
// "query by example" requests a few bytes instead of shipping the data
// both ways.
#ifndef KVMATCH_NET_PROTOCOL_H_
#define KVMATCH_NET_PROTOCOL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "service/query_service.h"

namespace kvmatch {
namespace net {

/// Hard cap on one frame's payload. A declared length beyond this is
/// unrecoverable (the stream offset can no longer be trusted), so the
/// decoder reports it as fatal rather than skipping the frame.
constexpr size_t kMaxPayloadBytes = 64ull << 20;

/// Frame header: 4B length + 4B CRC.
constexpr size_t kFrameHeaderBytes = 8;
/// Payload prologue: 1B type + 8B request id.
constexpr size_t kPayloadPrologueBytes = 9;

enum class FrameType : uint8_t {
  kQueryRequest = 1,   // WireQueryRequest body
  kQueryResponse = 2,  // QueryResponse body (status always OK)
  kError = 3,          // StatusCode + message; answers any request
  kStatsRequest = 4,   // empty body
  kStatsResponse = 5,  // plaintext stats dump
  kListRequest = 6,    // empty body
  kListResponse = 7,   // catalog directory: (name, length) pairs
  kPing = 8,           // empty body
  kPong = 9,           // empty body
  // Remote ingest (catalog write path over the wire). All three answer
  // with kIngestResponse on success and kError on failure.
  kCreateRequest = 10,  // WireIngestRequest body: register a new series
  kAppendRequest = 11,  // WireIngestRequest body: extend an existing series
  kDropRequest = 12,    // WireIngestRequest body (values ignored)
  kIngestResponse = 13, // IngestAck body
  /// Aborts the in-flight query whose request id equals this frame's
  /// request id (same connection). Fire-and-forget: there is no cancel
  /// ack — the cancelled query itself answers with a typed kError
  /// (Cancelled), or with its normal response if it won the race.
  kCancel = 14,         // empty body
  /// One chunk of a streamed match set: a match-list body for the given
  /// request id. Zero or more parts precede the final kQueryResponse
  /// (which then carries status/stats and no matches); parts arrive in
  /// offset order and concatenate to the exact single-frame result.
  kMatchResponsePart = 15,
  /// Cluster topology handshake: a coordinator verifies at connect time
  /// that the process behind a shard-map endpoint really is the shard the
  /// map says it is (same shard id, shard count and map fingerprint) —
  /// catching a stale map or a swapped port before any query is routed.
  kShardInfoRequest = 16,   // empty body
  kShardInfoResponse = 17,  // ShardInfo body
  /// Answer to a kQueryRequest whose series is a pattern ('*'/'?' glob),
  /// served by a coordinator: per-series match groups plus per-shard
  /// error/partial-result accounting. Exact-series queries through a
  /// coordinator answer with plain kQueryResponse frames instead, so a
  /// vanilla client cannot tell a coordinator from a single node.
  kFederatedResponse = 18,  // FederatedResponse body
};

struct Frame {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  std::string body;
};

/// A QueryRequest as it travels on the wire: either the literal query
/// values (request.query) or a by-reference (offset, length) window into
/// the named series, resolved server-side. The window may be given by the
/// three fields below or by request.reference; Reference() reads either,
/// and the fields win when both are set.
struct WireQueryRequest {
  QueryRequest request;
  bool by_reference = false;
  uint64_t ref_offset = 0;
  uint64_t ref_length = 0;

  std::optional<QueryRequest::Window> Reference() const {
    if (by_reference) return QueryRequest::Window{ref_offset, ref_length};
    return request.reference;
  }
};

/// One row of a kListResponse.
struct SeriesInfo {
  std::string name;
  uint64_t length = 0;

  bool operator==(const SeriesInfo&) const = default;
};

/// A catalog write as it travels on the wire: the target series plus the
/// points to create it with / append to it (empty for kDropRequest).
/// Large series ship as a kCreateRequest followed by chunked
/// kAppendRequests, keeping every frame under the payload cap.
struct WireIngestRequest {
  std::string series;
  std::vector<double> values;

  bool operator==(const WireIngestRequest&) const = default;
};

/// Body of a kIngestResponse: the installed epoch and resulting length
/// (both zero for a drop).
struct IngestAck {
  uint64_t epoch = 0;
  uint64_t length = 0;

  bool operator==(const IngestAck&) const = default;
};

/// The shard id a coordinator answers kShardInfoRequest with (a
/// coordinator is an endpoint too, but owns no slice of the hash space).
constexpr uint32_t kCoordinatorShardId = 0xFFFFFFFFu;

/// The shard id a server started without a shard map answers with:
/// "not sharded, owns everything".
constexpr uint32_t kStandaloneShardId = 0xFFFFFFFEu;

/// Body of a kShardInfoResponse: the responder's place in the cluster.
struct ShardInfo {
  uint32_t shard_id = kStandaloneShardId;
  uint32_t num_shards = 0;
  /// FNV-1a of the shard map's canonical serialization; both sides of a
  /// connection must agree or routing is undefined.
  uint64_t map_fingerprint = 0;
  uint64_t series_count = 0;

  bool operator==(const ShardInfo&) const = default;
};

/// One series' slice of a federated answer. Threshold matches are in
/// ascending offset order (the executor's slice-concat contract carried
/// across the wire); top-k groups hold that series' members of the
/// global top-k in (distance, offset) order.
struct FederatedSeriesMatches {
  std::string series;
  std::vector<MatchResult> matches;

  bool operator==(const FederatedSeriesMatches&) const = default;
};

/// Body of a kFederatedResponse: a scatter-gather answer. `groups` is
/// sorted by series name; `stats` is the sum of every answering shard's
/// MatchStats. A dead or too-slow shard does not fail the query — it is
/// recorded in `shard_errors` and shards_ok < shards_total marks the
/// result as typed-partial.
struct FederatedResponse {
  Status status = Status::OK();
  double latency_ms = 0.0;
  uint32_t shards_total = 0;
  uint32_t shards_ok = 0;
  /// (shard id, what went wrong) for every shard that failed to answer.
  std::vector<std::pair<uint32_t, Status>> shard_errors;
  std::vector<FederatedSeriesMatches> groups;
  MatchStats stats;
  /// Per-shard round-trip spans plus the coordinator's own plan/merge
  /// spans, present iff the request asked for a trace.
  std::shared_ptr<QueryTrace> trace;

  bool partial() const { return shards_ok < shards_total; }
};

// ---- Frame framing ----

/// Appends the complete wire encoding of `frame` to `wire`.
void EncodeFrame(const Frame& frame, std::string* wire);

/// Incremental decoder over a received byte stream. Feed() arbitrary
/// chunks, then poll Next() until it stops producing frames.
class FrameDecoder {
 public:
  enum class Event {
    kFrame,     // *out is a complete, CRC-verified frame
    kNeedMore,  // no complete frame buffered yet
    kBadFrame,  // one frame was corrupt (CRC/prologue); it has been
                // consumed and *error set — the stream stays decodable
    kFatal,     // framing is unrecoverable (oversized declared length)
  };

  explicit FrameDecoder(size_t max_payload_bytes = kMaxPayloadBytes);

  void Feed(std::string_view data);
  Event Next(Frame* out, Status* error);

  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  size_t pos_ = 0;  // consumed prefix of buffer_
  bool fatal_ = false;
};

// ---- Frame bodies ----

void EncodeQueryRequestBody(const WireQueryRequest& request,
                            std::string* body);
Status DecodeQueryRequestBody(std::string_view body, WireQueryRequest* out);

void EncodeQueryResponseBody(const QueryResponse& response,
                             std::string* body);
Status DecodeQueryResponseBody(std::string_view body, QueryResponse* out);

/// Split form of EncodeQueryResponseBody, for the server's serialize-span
/// chicken-and-egg: the prefix (status/latency/matches/stats) is encoded
/// and timed first, then the trace — now including the serialize span —
/// is appended. Prefix + AppendQueryResponseTrace(response.trace.get())
/// is byte-identical to EncodeQueryResponseBody.
void EncodeQueryResponsePrefix(const QueryResponse& response,
                               std::string* body);
/// Appends the optional trace section (a has-trace byte, then the spans).
/// `trace` may be null → "no trace".
void AppendQueryResponseTrace(const QueryTrace* trace, std::string* body);

/// Body of one kMatchResponsePart: a bare match list (the frame's request
/// id ties it to its query).
void EncodeMatchPartBody(std::span<const MatchResult> matches,
                         std::string* body);
/// Appends the part's matches to `*out` (streaming reassembly).
Status DecodeMatchPartBody(std::string_view body,
                           std::vector<MatchResult>* out);

void EncodeErrorBody(const Status& status, std::string* body);
/// Reconstructs the Status an error frame carries. Returns non-OK only
/// when `body` itself is malformed; the carried status lands in *out.
Status DecodeErrorBody(std::string_view body, Status* out);

void EncodeListResponseBody(const std::vector<SeriesInfo>& series,
                            std::string* body);
Status DecodeListResponseBody(std::string_view body,
                              std::vector<SeriesInfo>* out);

void EncodeIngestRequestBody(const WireIngestRequest& request,
                             std::string* body);
Status DecodeIngestRequestBody(std::string_view body,
                               WireIngestRequest* out);

void EncodeIngestResponseBody(const IngestAck& ack, std::string* body);
Status DecodeIngestResponseBody(std::string_view body, IngestAck* out);

void EncodeShardInfoBody(const ShardInfo& info, std::string* body);
Status DecodeShardInfoBody(std::string_view body, ShardInfo* out);

void EncodeFederatedResponseBody(const FederatedResponse& response,
                                 std::string* body);
Status DecodeFederatedResponseBody(std::string_view body,
                                   FederatedResponse* out);

/// The deadline a request should carry on its next hop: the budget it
/// arrived with minus the time already burned at this hop. Wire deadlines
/// are relative budgets, not absolute instants — each forwarder must
/// subtract its own elapsed time or queue/transfer time would be counted
/// once per hop. Returns 0 for "no deadline" inputs and a negative value
/// (meaning "already expired") once the budget is gone.
double RemainingBudgetMs(double timeout_ms,
                         std::chrono::steady_clock::time_point received);

/// Stable StatusCode <-> wire mapping (independent of the enum's in-memory
/// values, so old clients survive StatusCode reorderings).
uint32_t StatusCodeToWire(StatusCode code);
StatusCode StatusCodeFromWire(uint32_t wire);

}  // namespace net
}  // namespace kvmatch

#endif  // KVMATCH_NET_PROTOCOL_H_
