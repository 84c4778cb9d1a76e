// Blocking client for the kvmatch wire protocol, with request pipelining:
// SendRequest() pushes a frame and returns its request id immediately, so
// a client can keep many queries in flight on one connection and collect
// the responses with WaitResponse() in any order (responses that arrive
// while waiting for a different id are parked).
//
// A Client is NOT thread-safe: use one per thread (the remote-bench tool
// and bench/net_throughput.cc open one connection per simulated client,
// which is also how the server's per-connection stats stay meaningful).
#ifndef KVMATCH_NET_CLIENT_H_
#define KVMATCH_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"

namespace kvmatch {
namespace net {

class Client {
 public:
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 int port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one query frame (literal values, or by-reference for the
  /// overload taking a WireQueryRequest) and returns its request id.
  Result<uint64_t> SendRequest(const QueryRequest& request);
  Result<uint64_t> SendRequest(const WireQueryRequest& request);

  /// Blocks until the response for `id` arrives. A kError answer is
  /// surfaced as an OK Result whose response.status carries the decoded
  /// Status — exactly what the in-process Submit().get() would return.
  /// Streamed responses (kMatchResponsePart chunks + final frame) are
  /// reassembled transparently: the returned matches are identical to
  /// the single-frame encoding. Transport-level failures (connection
  /// lost, stream corruption) are non-OK Results; after one, the
  /// connection is unusable.
  Result<QueryResponse> WaitResponse(uint64_t id);

  /// Blocks until the final frame of *any* in-flight query arrives and
  /// returns (request id, reassembled response) — the demultiplexing
  /// primitive for callers that pipeline many queries and want answers in
  /// completion order (the coordinator's per-shard fan-out). Only valid
  /// while queries are the sole outstanding request kind on this
  /// connection; parked final frames are drained first, in id order.
  Result<std::pair<uint64_t, QueryResponse>> WaitAnyResponse();

  /// Bounds every blocking Wait* call entered after this: a wait that has
  /// not completed within the budget returns DeadlineExceeded. Unlike
  /// transport failures this leaves the connection usable — bytes already
  /// buffered (even a partial frame) are kept and the wait can simply be
  /// retried. 0 restores unbounded waits.
  void set_wait_timeout_ms(double ms) { wait_timeout_ms_ = ms; }

  /// Abandons an in-flight request: anything already parked for `id` is
  /// dropped now, and frames for it that arrive later are discarded
  /// instead of parked (the tombstone retires on the terminal frame, so
  /// it cannot accumulate). Used after a timed-out wait, when the caller
  /// stops caring about the answer but the server will still send it.
  void Forget(uint64_t id);

  /// Observability for leak regression tests: parked final frames /
  /// request ids with parked stream chunks / live tombstones.
  size_t parked_frames() const { return parked_.size(); }
  size_t parked_part_ids() const { return parked_parts_.size(); }
  size_t forgotten_ids() const { return forgotten_.size(); }

  /// Requests cancellation of the in-flight query `id` (fire-and-forget:
  /// no ack frame). The query's own response then arrives as Cancelled —
  /// or as its normal result if it completed first; callers must still
  /// WaitResponse(id).
  Status Cancel(uint64_t id);

  /// SendRequest + WaitResponse.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Remote ingest: registers `name` with `values` as its initial points
  /// (CREATE frame). The ack carries the installed epoch and length.
  Result<IngestAck> CreateSeries(const std::string& name,
                                 std::span<const double> values);

  /// Extends a registered series (APPEND frame). Chunk large appends:
  /// one frame must stay under the server's payload cap (~8M points).
  Result<IngestAck> AppendSeries(const std::string& name,
                                 std::span<const double> values);

  /// Unregisters a series (DROP frame); in-flight remote queries against
  /// it complete on their pinned epoch.
  Status DropSeries(const std::string& name);

  /// Server-side Prometheus-style stats dump (STATS frame).
  Result<std::string> StatsText();

  /// Catalog directory: every registered series and its length.
  Result<std::vector<SeriesInfo>> ListSeries();
  /// ListSeries in two halves, to send on several connections first.
  Result<uint64_t> SendList() {
    return SendFrame(FrameType::kListRequest, "");
  }
  Result<std::vector<SeriesInfo>> WaitList(uint64_t id);

  /// The server's cluster identity (kShardInfo round-trip): which shard
  /// it is, under which map fingerprint, or standalone/coordinator.
  Result<ShardInfo> GetShardInfo();

  /// Pattern query through a coordinator: sends `request` (whose series
  /// may be a '*'/'?' glob) and waits for the kFederatedResponse.
  Result<FederatedResponse> FederatedQuery(const WireQueryRequest& request);

  Status Ping();

 private:
  explicit Client(int fd);

  Result<uint64_t> SendFrame(FrameType type, std::string body);
  /// Reads frames until the one answering `id` shows up; parks others.
  /// With id == 0, returns the next final frame for any request instead.
  Result<Frame> WaitFrame(uint64_t id);
  /// Turns a final frame into the QueryResponse it carries, folding in
  /// the stream chunks accumulated for `id`.
  Result<QueryResponse> AssembleResponse(Result<Frame> frame, uint64_t id);
  /// Waits for the answer to `id`, which must be a `type` frame; a kError
  /// answer becomes the Status it carries.
  Result<Frame> WaitTyped(uint64_t id, FrameType type, const char* what);
  /// SendFrame + WaitTyped.
  Result<Frame> RoundTrip(FrameType type, std::string body, FrameType answer,
                          const char* what);
  /// CREATE/APPEND round-trip body shared by the ingest methods.
  Result<IngestAck> IngestRoundTrip(FrameType type, const std::string& name,
                                    std::span<const double> values);

  int fd_;
  uint64_t next_id_ = 1;
  double wait_timeout_ms_ = 0.0;
  FrameDecoder decoder_;
  std::map<uint64_t, Frame> parked_;
  /// Streamed match chunks accumulated per request id until the final
  /// frame for that id is consumed (or arrives as an error — an error
  /// never carries matches, so its chunks are dropped on arrival rather
  /// than parked until a WaitResponse that may never come).
  std::map<uint64_t, std::vector<MatchResult>> parked_parts_;
  /// Requests abandoned via Forget(): frames for these ids are discarded
  /// on arrival; an id retires when its terminal frame is seen.
  std::set<uint64_t> forgotten_;
};

}  // namespace net
}  // namespace kvmatch

#endif  // KVMATCH_NET_CLIENT_H_
