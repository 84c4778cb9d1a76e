// The reactor transport shared by the `serve` and `coord` front-ends:
// sockets, framing, flow control, HTTP scrapes and the graceful drain.
// What a request frame MEANS is not its business — every query, ingest,
// LIST and SHARDINFO frame is handed to a RequestHandler, and the handler
// answers through the transport's reply primitives (BeginRequest /
// CompleteRequest, Send, SendError, RunBlocking). The transport itself
// answers only PING, STATS (with the handler's StatsText), kCancel and
// HTTP.
//
// Threading model: a single epoll reactor thread owns every socket —
// accept, incremental frame decode on EPOLLIN, and completion-order
// writes drained from a per-connection outbox on EPOLLOUT — so the
// thread count is constant no matter how many connections are open
// (C10k from one loop). Handlers run on the loop thread and must not
// block: query work goes to the handler's own pool, whose completion
// (on a pool worker) pushes the encoded response frames onto the
// connection's outbox and prods the loop through an eventfd wakeup.
// Blocking request kinds (catalog ingest, a coordinator's shard
// round-trips) are handed to one helper thread via RunBlocking(), with
// that connection's frame processing suspended until the work finishes —
// per-connection frame order is exactly what a dedicated reader thread
// would have produced, but every other connection keeps flowing.
//
// Flow control: sockets are nonblocking; partial reads resume through
// the incremental FrameDecoder and partial writes through a write cursor
// into the outbox, which EPOLLOUT (level-triggered) re-drives. Queued
// frames coalesce into a single writev per drain round, so streaming
// tiny chunked matches does not pay one syscall per frame. When a
// connection's outbox exceeds max_outbox_bytes (a slow reader with a
// deep pipeline), the reactor stops reading from that connection until
// the peer drains below half the cap — responses already owed are never
// dropped, but a stalled consumer cannot queue unbounded new work.
//
// Robustness: a CRC-corrupted, malformed, unknown or response-type frame
// is answered with a typed kError frame, counted as a protocol error, and
// the connection keeps serving; only an oversized declared payload
// (framing no longer trustworthy) ends that connection (after its error
// frame flushes). Connections over the limit are refused with
// ResourceExhausted. A disconnect cancels the requests still in flight on
// that connection — their compute is not owed to anyone anymore. Stop()
// is graceful with a bounded drain: it stops accepting and reading, lets
// booked requests finish for up to drain_timeout_ms, cancels whatever is
// still running via the per-request tokens, flushes the responses
// (abandoning peers that stop reading for kStopWriteGraceMs), then joins
// the loop.
//
// Plain HTTP coexists on the frame port via first-bytes sniffing:
// GET/HEAD /metrics (the handler's StatsText) and /healthz are answered
// directly by the loop, with Connection: keep-alive honored when the
// scraper asks for it (and Connection: close otherwise).
#ifndef KVMATCH_NET_TRANSPORT_H_
#define KVMATCH_NET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "service/service_stats.h"

namespace kvmatch {
namespace net {

class Transport;
/// One accepted client connection. Opaque outside the transport: a
/// handler holds the pointer only to address its replies.
struct Connection;
using ConnectionPtr = std::shared_ptr<Connection>;

/// Request semantics behind a Transport. Every method runs on the loop
/// thread and must not block; `transport` is the one the frame arrived
/// on, and every reply goes back through it.
class RequestHandler {
 public:
  RequestHandler() = default;
  RequestHandler(const RequestHandler&) = delete;
  RequestHandler& operator=(const RequestHandler&) = delete;
  virtual ~RequestHandler() = default;
  /// kQueryRequest. `received` is the frame-arrival instant — the anchor
  /// for deadline-budget accounting at this hop.
  virtual void HandleQuery(Transport& transport, const ConnectionPtr& conn,
                           uint64_t id, std::string_view body,
                           std::chrono::steady_clock::time_point received) = 0;
  /// kCreateRequest / kAppendRequest / kDropRequest.
  virtual void HandleIngest(Transport& transport, const ConnectionPtr& conn,
                            FrameType type, uint64_t id,
                            std::string_view body) = 0;
  virtual void HandleList(Transport& transport, const ConnectionPtr& conn,
                          uint64_t id) = 0;
  virtual void HandleShardInfo(Transport& transport,
                               const ConnectionPtr& conn, uint64_t id) = 0;
  /// What a STATS frame and GET /metrics return.
  virtual std::string StatsText(const Transport& transport) const = 0;
};

class Transport {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    int port = 0;                  // 0 → kernel-assigned; see port()
    size_t max_connections = 64;   // beyond this, refuse with an error frame
    double idle_timeout_ms = 0.0;  // close idle connections; 0 disables
    size_t max_frame_bytes = kMaxPayloadBytes;
    /// Backpressure cap on one connection's queued-but-unsent response
    /// bytes: past it the reactor stops reading that connection's socket
    /// (no new requests) until the peer drains below half the cap.
    /// Responses owed for already-accepted requests still enqueue — the
    /// cap bounds new intake, not delivery. 0 disables.
    size_t max_outbox_bytes = 256ull << 20;
    /// Responses with more matches than this stream as kMatchResponsePart
    /// chunks of this many matches, then a final (matchless)
    /// kQueryResponse — so a huge match set never has to fit one frame.
    /// The default keeps every part well under the 64 MiB payload cap;
    /// 0 disables streaming (single-frame responses only).
    size_t stream_chunk_matches = 2'000'000;
    /// Stop(): wall-clock budget for draining in-flight requests before
    /// the remaining ones are cancelled via their tokens (they then
    /// answer Cancelled and the drain completes). 0 waits forever.
    double drain_timeout_ms = 30'000.0;
  };

  /// `handler` answers the request frames and `registry` records the
  /// connection/protocol/HTTP counters; both must outlive the transport.
  Transport(Options options, RequestHandler* handler,
            StatsRegistry* registry);
  ~Transport();  // calls Stop()

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds, listens and starts the reactor thread.
  Status Start();
  /// Graceful shutdown: stop accepting and reading, drain in-flight
  /// requests, flush their responses, join every thread. Idempotent.
  /// When it returns, no handler call or completion touches the
  /// transport any more.
  void Stop();

  /// The bound port (after Start); useful with Options::port == 0.
  int port() const { return port_; }
  size_t ActiveConnections() const;

  /// One block per live connection (requests, QPS, connection age), for
  /// a handler's StatsText.
  std::string ConnectionStatsText() const;

  // ---- reply primitives for handlers ----

  /// Books request `id` on `conn` and returns its cancel token, which
  /// kCancel frames, a disconnect and the Stop() drain fire. A duplicate
  /// of an id still in flight books nothing: it is answered with a
  /// protocol error and nullptr comes back. Every booked request is
  /// retired by exactly one CompleteRequest.
  std::shared_ptr<CancelToken> BeginRequest(const ConnectionPtr& conn,
                                            uint64_t id);
  /// Retires `id` and pushes its encoded response frames onto the outbox
  /// as one contiguous run, all under one critical section — a request
  /// stays pending until its terminal frame is enqueued, which the idle
  /// reaper and the Stop() drain both rely on. Safe from any thread; the
  /// completion must not touch the transport after it returns.
  void CompleteRequest(const ConnectionPtr& conn, uint64_t id,
                       std::vector<std::string> wires);
  /// Encodes `response` as its wire run: kMatchResponsePart chunks
  /// (AppendMatchParts) followed by the final kQueryResponse, or a single
  /// typed kError. Shared by both handlers, so a coordinator's exact-series
  /// passthrough is byte-identical to the owner shard's answer.
  std::vector<std::string> EncodeResponseRun(uint64_t id,
                                             QueryResponse response,
                                             bool wants_trace) const;
  /// Appends `matches` as kMatchResponsePart frames of stream_chunk()
  /// matches each (the last may run short). Requires stream_chunk() > 0.
  void AppendMatchParts(uint64_t id, std::span<const MatchResult> matches,
                        std::vector<std::string>* wires) const;
  /// Options::stream_chunk_matches clamped so no part frame can exceed
  /// max_frame_bytes; 0 when streaming is disabled.
  size_t stream_chunk() const { return stream_chunk_; }

  /// Queues one frame / pre-encoded bytes and kicks the loop. Any thread.
  void Send(const ConnectionPtr& conn, FrameType type, uint64_t id,
            std::string body = {});
  void EnqueueRaw(const ConnectionPtr& conn, std::string wire);
  void SendError(const ConnectionPtr& conn, uint64_t id,
                 const Status& status);
  /// SendError for a frame the client should never have sent (corrupt,
  /// undecodable, a duplicate id); counts a protocol error.
  void SendProtocolError(const ConnectionPtr& conn, uint64_t id,
                         const Status& status);

  /// Hands `work` to the blocking-work thread with this connection's
  /// frame processing suspended until it finishes; per-connection frame
  /// order is preserved exactly as if the work had run inline on a
  /// dedicated reader, but the reactor keeps serving every other
  /// connection meanwhile. The thread is FIFO across connections (catalog
  /// writes keep their arrival order). Loop thread only; `work` may use
  /// the reply primitives above.
  void RunBlocking(const ConnectionPtr& conn, std::function<void()> work);

 private:
  struct Refusal;

  // Loop thread: accept, read, dispatch, write, close. See transport.cc.
  void OnAcceptable();
  void RefuseConnection(int fd);
  void FlushRefusal(const std::shared_ptr<Refusal>& refusal);
  void DropRefusal(const std::shared_ptr<Refusal>& refusal);
  void OnConnectionEvent(const ConnectionPtr& conn, uint32_t events);
  void OnReadable(const ConnectionPtr& conn);
  void ProcessInput(const ConnectionPtr& conn);
  void ProcessHttp(const ConnectionPtr& conn);
  /// Answers one plain-HTTP request; true keeps the connection open.
  bool HandleHttp(const ConnectionPtr& conn, std::string_view head);
  void HandleFrame(const ConnectionPtr& conn, Frame frame);
  void FlushOutbox(const ConnectionPtr& conn);
  void KickFlush(const ConnectionPtr& conn);
  void MaybeResumeReads(const ConnectionPtr& conn);
  void UpdateInterest(const ConnectionPtr& conn);
  void CloseConnection(const ConnectionPtr& conn);
  bool ReadyToClose(const ConnectionPtr& conn);
  void OnTick();
  void EnterDrain();
  void CancelAllInFlight();
  void BlockingWorker();
  /// Appends `wires` to the outbox (dropped once the connection closed),
  /// retiring request `retire` in the same critical section when set,
  /// and posts a flush kick. Any thread.
  void Push(const ConnectionPtr& conn, std::vector<std::string> wires,
            std::optional<uint64_t> retire);

  const Options options_;
  const size_t stream_chunk_;
  RequestHandler* const handler_;
  StatsRegistry* const registry_;

  int listen_fd_ = -1;
  uint64_t listen_token_ = 0;
  int port_ = 0;
  bool started_ = false;
  // Loop-thread-only state.
  bool draining_ = false;       // EnterDrain ran: shutting down
  bool accept_paused_ = false;  // fd-exhaustion backoff on the listener
  std::chrono::steady_clock::time_point last_tick_{};

  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;

  /// Requests booked (BeginRequest) and not yet completed, across
  /// every connection including already-closed ones — what the Stop()
  /// drain waits on. The decrement is CompleteRequest's final action, so
  /// observing 0 means no completion will touch `this` again.
  std::atomic<size_t> total_pending_{0};

  std::thread blocking_thread_;
  std::mutex blocking_mu_;
  std::condition_variable blocking_cv_;
  std::deque<std::function<void()>> blocking_queue_;
  bool blocking_stop_ = false;

  /// Refused-over-limit sockets still flushing their courtesy error
  /// frame, by loop token. Loop thread only (Stop() sweeps leftovers
  /// after the loop is joined).
  std::map<uint64_t, std::shared_ptr<Refusal>> refusals_;

  mutable std::mutex conns_mu_;
  std::map<uint64_t, ConnectionPtr> conns_;
  uint64_t next_conn_id_ = 1;
};

}  // namespace net
}  // namespace kvmatch

#endif  // KVMATCH_NET_TRANSPORT_H_
