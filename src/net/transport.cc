#include "net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace kvmatch {
namespace net {

namespace {

/// epoll_wait timeout: upper bound on the latency of periodic loop work
/// (idle reaping, drain progress).
constexpr int kTickMs = 50;
/// Abandon a peer that stops draining its responses during Stop() (and
/// expire refused-connection courtesy frames) after this stall.
constexpr int kStopWriteGraceMs = 5000;

/// Bytes needed to tell a plain-HTTP scrape from a binary frame. An HTTP
/// verb read as a little-endian frame length would be absurd (e.g. "GET "
/// ≈ 542 MB), far past kMaxPayloadBytes — the two protocols cannot
/// collide within the cap.
constexpr size_t kHttpSniffBytes = 4;
/// A scrape request's head must fit this; anything longer is dropped.
constexpr size_t kMaxHttpHeadBytes = 16 * 1024;

/// Bytes recv'd from one connection per readiness event before yielding
/// to the rest of the loop (level-triggered epoll re-fires for the rest).
constexpr size_t kMaxReadPerEvent = 256 * 1024;
/// Bytes written to one connection per flush before the loop re-kicks
/// itself — one fast consumer must not starve the others.
constexpr size_t kMaxWritePerFlush = 4 * 1024 * 1024;
/// Outbox frames coalesced into one writev round.
constexpr int kMaxWriteIov = 16;
/// accept4() calls per listen-readiness event, for the same fairness.
constexpr int kMaxAcceptsPerEvent = 64;

bool LooksLikeHttp(std::string_view prelude) {
  return prelude.substr(0, 4) == "GET " || prelude.substr(0, 4) == "HEAD" ||
         prelude.substr(0, 4) == "POST" || prelude.substr(0, 4) == "PUT " ||
         prelude.substr(0, 4) == "DELE" || prelude.substr(0, 4) == "OPTI";
}

/// The client asked to reuse the connection: scan the header lines after
/// the request line for `Connection: keep-alive` (case-insensitive, as
/// HTTP demands). HTTP/1.1 technically defaults to keep-alive, but this
/// responder predates that nuance and clients of record (including the
/// tests) rely on close-by-default — so only an explicit opt-in persists.
bool WantsKeepAlive(std::string_view head) {
  std::string lower(head);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const std::string_view name = "\r\nconnection:";
  for (size_t pos = lower.find(name); pos != std::string::npos;
       pos = lower.find(name, pos + name.size())) {
    const size_t end = lower.find("\r\n", pos + name.size());
    if (lower.substr(pos, end - pos).find("keep-alive") != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// One frame as its wire bytes.
std::string Wire(FrameType type, uint64_t id, std::string body) {
  Frame frame;
  frame.type = type;
  frame.request_id = id;
  frame.body = std::move(body);
  std::string wire;
  EncodeFrame(frame, &wire);
  return wire;
}

/// Options::stream_chunk_matches clamped so no part frame can exceed the
/// frame cap: a MatchResult encodes at up to 18 bytes (10B varint offset
/// + 8B double), plus prologue headroom. 0 stays 0 (streaming disabled).
size_t ClampStreamChunk(const Transport::Options& options) {
  const size_t cap_matches = options.max_frame_bytes > 64
                                 ? (options.max_frame_bytes - 64) / 18
                                 : 1;
  return std::min(options.stream_chunk_matches, cap_matches);
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

struct Connection {
  uint64_t id = 0;
  int fd = -1;
  uint64_t token = 0;  // event-loop registration
  std::chrono::steady_clock::time_point opened;

  /// Guards the fields workers share with the loop: the outbox and its
  /// byte gauge, the in-flight bookkeeping, and the activity clock.
  std::mutex mu;
  std::deque<std::string> outbox;  // encoded frames awaiting write
  size_t outbox_bytes = 0;         // sum of queued (unsent) bytes
  size_t front_written = 0;        // partial-write cursor into front()
  /// A flush has been posted to the loop and not yet run — coalesces
  /// the kicks of back-to-back completions into one loop entry.
  bool kick_pending = false;
  /// The fd is closed and the connection retired: enqueues are dropped
  /// (their request is still retired through the pending counters).
  bool closed = false;
  size_t pending = 0;  // booked requests not yet completed
  /// Cancellation token per in-flight request, keyed by the client's
  /// request id; entries vanish when the response is enqueued. kCancel
  /// frames, disconnects, and the Stop() drain watchdog fire these.
  std::map<uint64_t, std::shared_ptr<CancelToken>> inflight;
  uint64_t requests = 0;  // served requests (stats)
  /// Last byte movement in either direction — inbound reads or write
  /// progress — so the idle reaper never closes a connection that is
  /// slowly draining a response.
  std::chrono::steady_clock::time_point last_activity;
  /// Last write progress, for the Stop() grace watchdog: a peer that
  /// stops reading during shutdown is abandoned after a bounded stall.
  std::chrono::steady_clock::time_point last_write_progress;

  // ---- loop-thread-only state ----
  FrameDecoder decoder;
  bool sniffed = false;    // first bytes classified HTTP vs frames
  bool http_mode = false;
  std::string http_buf;
  /// Blocking work (RunBlocking) is in flight on the helper thread:
  /// frame processing and reads are suspended so per-connection order
  /// matches the dedicated-reader semantics.
  bool busy = false;
  bool reads_paused = false;  // EPOLLIN disarmed (backpressure/busy)
  bool want_write = false;    // EPOLLOUT armed (partial write pending)
  /// No more input will be processed (peer EOF, fatal framing error,
  /// HTTP close, or server drain): the connection closes once pending
  /// responses have been enqueued and the outbox has flushed.
  bool input_done = false;
  bool dead = false;  // CloseConnection ran (loop-side mirror of closed)
};

struct Transport::Refusal {
  int fd = -1;
  uint64_t token = 0;
  std::string wire;
  size_t written = 0;
  std::chrono::steady_clock::time_point since;
};

Transport::Transport(Options options, RequestHandler* handler,
                     StatsRegistry* registry)
    : options_(std::move(options)),
      stream_chunk_(ClampStreamChunk(options_)),
      handler_(handler),
      registry_(registry) {}

Transport::~Transport() { Stop(); }

Status Transport::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  // Failures once the socket exists close it and drop the loop.
  auto fail = [this](Status st) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    loop_.reset();
    return st;
  };

  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(options_.port);
  if (::getaddrinfo(options_.bind_address.c_str(), port_str.c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    return Status::InvalidArgument("cannot resolve bind address " +
                                   options_.bind_address);
  }
  listen_fd_ = ::socket(resolved->ai_family, resolved->ai_socktype, 0);
  if (listen_fd_ < 0) {
    ::freeaddrinfo(resolved);
    return Errno("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, resolved->ai_addr, resolved->ai_addrlen) < 0) {
    ::freeaddrinfo(resolved);
    return fail(Errno("bind " + options_.bind_address + ":" + port_str));
  }
  ::freeaddrinfo(resolved);
  // A deep backlog: a C10k connect storm arrives faster than one loop
  // iteration can accept, and the overflow must queue, not get RST.
  if (::listen(listen_fd_, 1024) < 0) return fail(Errno("listen"));
  if (Status st = SetNonBlocking(listen_fd_); !st.ok()) return fail(st);

  struct sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  loop_ = std::make_unique<EventLoop>();
  if (Status st = loop_->Init(); !st.ok()) return fail(st);
  listen_token_ =
      loop_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
  if (listen_token_ == 0) {
    return fail(Status::IOError("cannot register listen socket with epoll"));
  }

  draining_ = false;
  blocking_stop_ = false;
  blocking_thread_ = std::thread([this] { BlockingWorker(); });
  loop_thread_ =
      std::thread([this] { loop_->Run(kTickMs, [this] { OnTick(); }); });
  started_ = true;
  return Status::OK();
}

void Transport::Stop() {
  if (!started_) return;
  // Seal intake on the loop thread: once EnterDrain has run, no new
  // connection or request can register, so the pending counter below can
  // only fall — the drain wait cannot be raced by a late submission (the
  // flaw the old thread-per-connection Stop() had to re-sweep around).
  std::atomic<bool> sealed{false};
  loop_->Post([this, &sealed] {
    EnterDrain();
    sealed.store(true, std::memory_order_release);
  });
  while (!sealed.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Bounded drain: give in-flight requests drain_timeout_ms to finish on
  // their own, then cancel the stragglers through their tokens — they
  // abort at the next checkpoint and their Cancelled responses flush like
  // any other, so the connection wait below never hangs on a runaway
  // scan. drain_timeout_ms == 0 waits forever, cancelling nothing.
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              options_.drain_timeout_ms));
  while (total_pending_.load(std::memory_order_acquire) > 0) {
    if (options_.drain_timeout_ms > 0.0 &&
        std::chrono::steady_clock::now() >= drain_deadline) {
      CancelAllInFlight();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Every response is now enqueued; the loop's ticks flush and close each
  // connection (abandoning peers that stall past kStopWriteGraceMs) and
  // let suspended blocking work resume and finish.
  while (ActiveConnections() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(blocking_mu_);
    blocking_stop_ = true;
  }
  blocking_cv_.notify_all();
  if (blocking_thread_.joinable()) blocking_thread_.join();
  loop_->RequestStop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Courtesy refusals the loop did not finish flushing: just close them.
  for (auto& [token, refusal] : refusals_) ::close(refusal->fd);
  refusals_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  loop_.reset();
  started_ = false;
}

// Runs on the loop at the head of Stop(): stops accepting, marks every
// connection input_done, restarts the write-stall grace clocks. After it
// returns, no new connection or request can register.
void Transport::EnterDrain() {
  draining_ = true;
  // Stop accepting: deregister interest but keep the socket bound, so
  // late connects queue in the backlog instead of getting RST while the
  // drain completes.
  if (listen_token_ != 0) loop_->Mod(listen_token_, 0);
  std::vector<ConnectionPtr> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  const auto now = std::chrono::steady_clock::now();
  for (const auto& conn : conns) {
    if (conn->dead) continue;
    conn->input_done = true;
    {
      // Restart the write-stall grace clock: the watchdog measures the
      // stall from shutdown, not from whenever the peer last read.
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->last_write_progress = now;
    }
    UpdateInterest(conn);
    if (ReadyToClose(conn)) CloseConnection(conn);
  }
}

// The drain watchdog: fires every in-flight request's token.
void Transport::CancelAllInFlight() {
  std::vector<std::shared_ptr<CancelToken>> tokens;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      for (const auto& [rid, token] : conn->inflight) {
        tokens.push_back(token);
      }
    }
  }
  for (auto& token : tokens) token->Cancel();
}

size_t Transport::ActiveConnections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

std::string Transport::ConnectionStatsText() const {
  std::string out;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& [id, conn] : conns_) {
    uint64_t requests = 0;
    {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      requests = conn->requests;
    }
    const double age =
        std::chrono::duration<double>(now - conn->opened).count();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "kvmatch_connection_requests_total{conn=\"%llu\"} %llu\n"
                  "kvmatch_connection_qps{conn=\"%llu\"} %.6g\n"
                  "kvmatch_connection_age_seconds{conn=\"%llu\"} %.6g\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(id),
                  age > 0.0 ? static_cast<double>(requests) / age : 0.0,
                  static_cast<unsigned long long>(id), age);
    out.append(buf);
  }
  return out;
}

// --------------------------------------------------------------- accept

void Transport::OnAcceptable() {
  if (draining_) return;
  for (int i = 0; i < kMaxAcceptsPerEvent; ++i) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: level-triggered EPOLLIN would spin the loop
        // hot on the un-accepted backlog, so back off until the next tick
        // (closing connections is what frees fds, and closes happen here
        // on the loop).
        loop_->Mod(listen_token_, 0);
        accept_paused_ = true;
      }
      return;  // EAGAIN or a hard error: nothing more to accept now
    }

    bool over_limit = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      over_limit = conns_.size() >= options_.max_connections;
    }
    if (over_limit) {
      RefuseConnection(fd);
      continue;
    }

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->opened = std::chrono::steady_clock::now();
    conn->last_activity = conn->opened;
    conn->last_write_progress = conn->opened;
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    conn->token = loop_->Add(
        fd, EPOLLIN,
        [this, conn](uint32_t events) { OnConnectionEvent(conn, events); });
    if (conn->token == 0) {
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.erase(conn->id);
      }
      ::close(fd);
      continue;
    }
    registry_->RecordConnectionOpened();
  }
}

// Over-limit courtesy refusal: the error frame flushes from the loop
// without the socket ever becoming a tracked connection.
void Transport::RefuseConnection(int fd) {
  registry_->RecordConnectionRejected();
  std::string body;
  EncodeErrorBody(Status::ResourceExhausted("connection limit reached"),
                  &body);
  auto refusal = std::make_shared<Refusal>();
  refusal->fd = fd;
  refusal->wire = Wire(FrameType::kError, 0, std::move(body));
  refusal->since = std::chrono::steady_clock::now();
  FlushRefusal(refusal);
}

void Transport::FlushRefusal(const std::shared_ptr<Refusal>& refusal) {
  while (refusal->written < refusal->wire.size()) {
    const ssize_t n =
        ::send(refusal->fd, refusal->wire.data() + refusal->written,
               refusal->wire.size() - refusal->written, MSG_NOSIGNAL);
    if (n >= 0) {
      refusal->written += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) break;  // peer gone
    // Usually the whole frame fits the fresh socket buffer; otherwise the
    // rest flushes on EPOLLOUT, expired by OnTick after a bounded grace.
    if (refusal->token == 0) {
      refusal->token = loop_->Add(
          refusal->fd, EPOLLOUT,
          [this, refusal](uint32_t) { FlushRefusal(refusal); });
      if (refusal->token == 0) break;
      refusals_[refusal->token] = refusal;
    }
    return;
  }
  DropRefusal(refusal);
}

void Transport::DropRefusal(const std::shared_ptr<Refusal>& refusal) {
  if (const uint64_t token = refusal->token; token != 0) {
    loop_->Del(token);
    refusals_.erase(token);
  }
  ::close(refusal->fd);
}

// ----------------------------------------------------------------- read

void Transport::OnConnectionEvent(const ConnectionPtr& conn,
                                  uint32_t events) {
  if (conn->dead) return;
  // Read before write: an EPOLLIN|EPOLLOUT batch should submit the next
  // pipelined request before draining responses, and EPOLLHUP/EPOLLERR
  // surface through recv() (EOF / the pending error) on the read path.
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) OnReadable(conn);
  if (conn->dead) return;
  if (events & EPOLLOUT) FlushOutbox(conn);
}

void Transport::OnReadable(const ConnectionPtr& conn) {
  // Suspended (blocking work in flight, backpressure, or input finished):
  // interest is disarmed, but EPOLLHUP/EPOLLERR still land here — the
  // socket stays untouched until the suspension lifts.
  if (conn->dead || conn->busy || conn->input_done || conn->reads_paused) {
    return;
  }
  char buf[64 * 1024];
  size_t consumed = 0;
  bool eof = false;
  while (consumed < kMaxReadPerEvent) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn);
      return;
    }
    consumed += static_cast<size_t>(n);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->last_activity = std::chrono::steady_clock::now();
    }
    const std::string_view chunk(buf, static_cast<size_t>(n));
    if (!conn->sniffed) {
      // Protocol sniff: the first kHttpSniffBytes decide whether this
      // connection speaks binary frames or plain HTTP (a Prometheus
      // scrape, a curl /healthz). Until decided, bytes accumulate.
      conn->http_buf.append(chunk);
      if (conn->http_buf.size() < kHttpSniffBytes) continue;
      conn->sniffed = true;
      conn->http_mode = LooksLikeHttp(conn->http_buf);
      if (!conn->http_mode) {
        conn->decoder.Feed(conn->http_buf);
        conn->http_buf.clear();
        conn->http_buf.shrink_to_fit();
      }
    } else if (conn->http_mode) {
      conn->http_buf.append(chunk);
    } else {
      conn->decoder.Feed(chunk);
    }
    ProcessInput(conn);
    if (conn->dead) return;
    if (conn->busy || conn->input_done) break;
    // Backpressure: a slow reader with a deep pipeline has queued past
    // the cap — stop taking new requests until the outbox drains below
    // half of it (FlushOutbox resumes).
    if (options_.max_outbox_bytes > 0) {
      bool over = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        over = conn->outbox_bytes >= options_.max_outbox_bytes;
      }
      if (over) {
        conn->reads_paused = true;
        registry_->RecordNetReadPaused();
        break;
      }
    }
  }
  if (eof) {
    conn->input_done = true;
    if (ReadyToClose(conn)) {
      CloseConnection(conn);
      return;
    }
  }
  UpdateInterest(conn);
}

// Drains decoded frames (or buffered HTTP requests) until the decoder
// runs dry or the connection suspends or dies.
void Transport::ProcessInput(const ConnectionPtr& conn) {
  if (conn->dead || !conn->sniffed) return;
  if (conn->http_mode) {
    ProcessHttp(conn);
    return;
  }
  // A handler may suspend the connection (RunBlocking) or finish its
  // input (fatal framing, drain): both stop the dispatch with the
  // remaining frames left buffered in the decoder for later (or never).
  while (!conn->busy && !conn->dead && !conn->input_done) {
    Frame frame;
    Status error;
    const FrameDecoder::Event event = conn->decoder.Next(&frame, &error);
    if (event == FrameDecoder::Event::kNeedMore) break;
    if (event == FrameDecoder::Event::kFrame) {
      HandleFrame(conn, std::move(frame));
      continue;
    }
    // kBadFrame / kFatal: answer with a typed error; the request id is
    // unrecoverable from a corrupt payload, so 0 means "stream-level".
    SendProtocolError(conn, 0, error);
    if (event == FrameDecoder::Event::kFatal) {
      // Framing offset lost: stop reading; the connection closes once
      // the error frame (and any owed responses) have flushed.
      conn->input_done = true;
      UpdateInterest(conn);
    }
  }
}

void Transport::ProcessHttp(const ConnectionPtr& conn) {
  while (!conn->dead && !conn->input_done) {
    if (conn->http_buf.size() > kMaxHttpHeadBytes) {
      CloseConnection(conn);  // not a scrape
      return;
    }
    const size_t head_end = conn->http_buf.find("\r\n\r\n");
    if (head_end == std::string::npos) return;  // head still arriving
    const bool keep_alive =
        HandleHttp(conn, std::string_view(conn->http_buf).substr(0, head_end));
    conn->http_buf.erase(0, head_end + 4);
    if (!keep_alive) {
      conn->input_done = true;
      UpdateInterest(conn);
      return;  // the response flushes, then the connection closes
    }
    // Keep-alive: loop in case the scraper pipelined another request.
  }
}

// Answers one plain-HTTP request (`head`: everything up to the blank
// line). True keeps the connection open for the next one (the client sent
// Connection: keep-alive); false closes once the response flushes.
bool Transport::HandleHttp(const ConnectionPtr& conn,
                           std::string_view head) {
  // Request line only; the sole header that matters is Connection.
  std::string_view line = head.substr(0, head.find("\r\n"));
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  std::string_view method, target;
  if (sp1 != std::string_view::npos && sp2 != std::string_view::npos &&
      sp2 > sp1) {
    method = line.substr(0, sp1);
    target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  if (const size_t q = target.find('?'); q != std::string_view::npos) {
    target = target.substr(0, q);  // scrape params are ignored
  }

  int code = 200;
  const char* reason = "OK";
  const char* content_type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET" && method != "HEAD") {
    code = 405;
    reason = "Method Not Allowed";
    body = "method not allowed\n";
  } else if (target == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = handler_->StatsText(*this);
  } else if (target == "/healthz") {
    body = "ok\n";
  } else {
    code = 404;
    reason = "Not Found";
    body = "not found\n";
  }
  // Close by default (what one-shot scripted clients expect); persist
  // only when the scraper explicitly asked — and never across a 405,
  // whose request may carry a body this parser does not consume.
  const bool keep_alive =
      (method == "GET" || method == "HEAD") && WantsKeepAlive(head);

  registry_->RecordHttpRequest();
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->requests += 1;
  }

  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: %s\r\n"
                "\r\n",
                code, reason, content_type, body.size(),
                keep_alive ? "keep-alive" : "close");
  std::string wire(header);
  if (method != "HEAD") wire += body;
  EnqueueRaw(conn, std::move(wire));
  return keep_alive;
}

// ---------------------------------------------------------------- write

void Transport::Send(const ConnectionPtr& conn, FrameType type, uint64_t id,
                     std::string body) {
  EnqueueRaw(conn, Wire(type, id, std::move(body)));
}

void Transport::EnqueueRaw(const ConnectionPtr& conn, std::string wire) {
  std::vector<std::string> wires;
  wires.push_back(std::move(wire));
  Push(conn, std::move(wires), std::nullopt);
}

void Transport::Push(const ConnectionPtr& conn,
                     std::vector<std::string> wires,
                     std::optional<uint64_t> retire) {
  bool need_kick = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (retire.has_value()) {
      conn->pending -= 1;
      conn->inflight.erase(*retire);
    }
    if (!conn->closed) {
      size_t added = 0;
      for (auto& w : wires) {
        added += w.size();
        conn->outbox.push_back(std::move(w));
      }
      conn->outbox_bytes += added;
      registry_->RecordNetOutboxBytes(static_cast<int64_t>(added));
      conn->last_activity = std::chrono::steady_clock::now();
      // One posted flush covers back-to-back pushes.
      need_kick = !std::exchange(conn->kick_pending, true);
    }
  }
  if (need_kick) loop_->Post([this, conn] { KickFlush(conn); });
}

// Loop-side landing of a Push kick.
void Transport::KickFlush(const ConnectionPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->kick_pending = false;
  }
  if (!conn->dead) FlushOutbox(conn);
}

// writev-drains the outbox until EAGAIN, empty, or the fairness cap;
// arms/disarms EPOLLOUT, resumes backpressured reads, and performs the
// deferred close once a finished connection has flushed.
void Transport::FlushOutbox(const ConnectionPtr& conn) {
  if (conn->dead) return;
  size_t flushed = 0;
  for (;;) {
    // Coalesce queued frames into one writev round: with TCP_NODELAY on,
    // per-frame send() would put each tiny streamed chunk in its own
    // packet — batched iovecs keep the syscall AND packet count flat.
    // The iovecs point into outbox strings; that is safe across the
    // unlock because only this (loop) thread pops or clears the deque,
    // workers only push_back, and deque growth never moves elements.
    struct iovec iov[kMaxWriteIov];
    int iovcnt = 0;
    size_t batch_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      size_t skip = conn->front_written;
      for (const std::string& w : conn->outbox) {
        if (iovcnt == kMaxWriteIov) break;
        iov[iovcnt].iov_base = const_cast<char*>(w.data()) + skip;
        iov[iovcnt].iov_len = w.size() - skip;
        batch_bytes += w.size() - skip;
        skip = 0;
        ++iovcnt;
      }
    }
    if (iovcnt == 0) break;  // drained

    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn->want_write = true;
        UpdateInterest(conn);
        return;
      }
      CloseConnection(conn);
      return;
    }

    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->outbox_bytes -= static_cast<size_t>(n);
      const auto now = std::chrono::steady_clock::now();
      conn->last_activity = now;
      conn->last_write_progress = now;
      size_t remaining = static_cast<size_t>(n);
      while (remaining > 0) {
        std::string& front = conn->outbox.front();
        const size_t left = front.size() - conn->front_written;
        if (remaining >= left) {
          remaining -= left;
          conn->front_written = 0;
          conn->outbox.pop_front();
        } else {
          conn->front_written += remaining;
          remaining = 0;
        }
      }
    }
    registry_->RecordNetOutboxBytes(-n);
    flushed += static_cast<size_t>(n);
    MaybeResumeReads(conn);

    if (static_cast<size_t>(n) < batch_bytes) {
      // Kernel buffer full mid-batch: EPOLLOUT re-drives the rest.
      conn->want_write = true;
      UpdateInterest(conn);
      return;
    }
    if (flushed >= kMaxWritePerFlush) {
      // Fairness cap: yield the loop to other connections and come back
      // through a self-kick.
      bool need_kick = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        need_kick = !std::exchange(conn->kick_pending, true);
      }
      if (need_kick) loop_->Post([this, conn] { KickFlush(conn); });
      return;
    }
  }
  // Outbox empty: disarm EPOLLOUT, lift backpressure, and perform the
  // deferred close of a connection whose input already finished.
  conn->want_write = false;
  MaybeResumeReads(conn);
  UpdateInterest(conn);
  if (conn->input_done && ReadyToClose(conn)) CloseConnection(conn);
}

// Lifts backpressure once the outbox drained below half the cap.
void Transport::MaybeResumeReads(const ConnectionPtr& conn) {
  if (!conn->reads_paused || conn->dead) return;
  bool below = true;
  if (options_.max_outbox_bytes > 0) {
    std::lock_guard<std::mutex> lock(conn->mu);
    below = conn->outbox_bytes <= options_.max_outbox_bytes / 2;
  }
  if (below) {
    conn->reads_paused = false;
    UpdateInterest(conn);
  }
}

// ------------------------------------------------------------ lifecycle

// Applies the epoll mask the paused/busy/input_done/want_write flags imply.
void Transport::UpdateInterest(const ConnectionPtr& conn) {
  if (conn->dead || conn->token == 0) return;
  uint32_t events = 0;
  if (!conn->reads_paused && !conn->busy && !conn->input_done) {
    events |= EPOLLIN;
  }
  if (conn->want_write) events |= EPOLLOUT;
  loop_->Mod(conn->token, events);
}

// Every owed response enqueued AND flushed, and no blocking work
// suspended on the connection.
bool Transport::ReadyToClose(const ConnectionPtr& conn) {
  if (conn->busy) return false;
  std::lock_guard<std::mutex> lock(conn->mu);
  return conn->pending == 0 && conn->outbox.empty();
}

// Closes the fd, retires the connection and cancels its in-flight
// requests. Loop thread only; idempotent.
void Transport::CloseConnection(const ConnectionPtr& conn) {
  if (conn->dead) return;
  conn->dead = true;
  if (conn->token != 0) {
    loop_->Del(conn->token);
    conn->token = 0;
  }
  std::vector<std::shared_ptr<CancelToken>> orphans;
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    for (const auto& [rid, token] : conn->inflight) {
      orphans.push_back(token);
    }
    dropped = conn->outbox_bytes;
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->front_written = 0;
  }
  if (dropped > 0) {
    registry_->RecordNetOutboxBytes(-static_cast<int64_t>(dropped));
  }
  ::close(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->id);
  }
  registry_->RecordConnectionClosed();
  // A disconnect cancels the queries still in flight on it: nobody can
  // receive their answers, their compute is pure waste, and — since a
  // closed connection is no longer reachable through CancelAllInFlight —
  // leaving them running would also unbound the Stop() drain.
  for (auto& token : orphans) token->Cancel();
}

void Transport::RunBlocking(const ConnectionPtr& conn,
                            std::function<void()> work) {
  conn->busy = true;
  UpdateInterest(conn);
  {
    std::lock_guard<std::mutex> lock(blocking_mu_);
    blocking_queue_.push_back([this, conn, work = std::move(work)] {
      work();
      loop_->Post([this, conn] {
        conn->busy = false;
        if (conn->dead) return;
        UpdateInterest(conn);
        // Frames that arrived (or were already decoded) before the
        // suspension resume in order.
        ProcessInput(conn);
        if (conn->dead) return;
        if (conn->input_done && ReadyToClose(conn)) CloseConnection(conn);
      });
    });
  }
  blocking_cv_.notify_one();
}

void Transport::BlockingWorker() {
  for (;;) {
    std::function<void()> work;
    {
      std::unique_lock<std::mutex> lock(blocking_mu_);
      blocking_cv_.wait(
          lock, [&] { return blocking_stop_ || !blocking_queue_.empty(); });
      if (blocking_queue_.empty()) {
        if (blocking_stop_) return;
        continue;
      }
      work = std::move(blocking_queue_.front());
      blocking_queue_.pop_front();
    }
    work();
  }
}

// Periodic loop work: idle reaping, drain-mode closes, the shutdown
// write-stall watchdog, refusal expiry, and the loop counters' export.
void Transport::OnTick() {
  // Run() invokes this after every epoll_wait return, which under load is
  // far more often than the 50 ms tick — and a sweep over 10k connections
  // must not run per readiness batch. Throttle to the tick period.
  const auto now = std::chrono::steady_clock::now();
  if (now - last_tick_ < std::chrono::milliseconds(kTickMs)) return;
  last_tick_ = now;

  registry_->SetNetLoopCounters(loop_->iterations(), loop_->wakeups());

  if (accept_paused_ && !draining_) {
    // fd-exhaustion backoff over: try accepting again.
    loop_->Mod(listen_token_, EPOLLIN);
    accept_paused_ = false;
  }

  std::vector<ConnectionPtr> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (const auto& conn : conns) {
    if (conn->dead) continue;
    if (draining_) {
      if (ReadyToClose(conn)) {
        CloseConnection(conn);
        continue;
      }
      bool stalled = false;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        stalled = !conn->outbox.empty() &&
                  now - conn->last_write_progress >=
                      std::chrono::milliseconds(kStopWriteGraceMs);
      }
      if (stalled) CloseConnection(conn);  // dead peer: abandon the flush
      continue;
    }
    if (options_.idle_timeout_ms > 0.0 && !conn->busy) {
      // Quiescent means truly drained: no response pending and nothing
      // queued (a partially-written frame keeps the outbox non-empty) —
      // and the idle clock runs from the last activity in EITHER
      // direction, so a connection being served a slow, long-streaming
      // response is never reaped between its frames.
      bool quiescent = false;
      double idle_ms = 0.0;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        quiescent = conn->pending == 0 && conn->outbox.empty();
        idle_ms = std::chrono::duration<double, std::milli>(
                      now - conn->last_activity)
                      .count();
      }
      if (quiescent && idle_ms >= options_.idle_timeout_ms) {
        CloseConnection(conn);
      }
    }
  }

  // Refused-connection courtesy frames that never flushed: expire them.
  std::vector<std::shared_ptr<Refusal>> expired;
  for (const auto& [token, refusal] : refusals_) {
    if (now - refusal->since >=
        std::chrono::milliseconds(kStopWriteGraceMs)) {
      expired.push_back(refusal);
    }
  }
  for (const auto& refusal : expired) DropRefusal(refusal);
}

// ------------------------------------------------------------- requests

void Transport::SendError(const ConnectionPtr& conn, uint64_t id,
                          const Status& status) {
  std::string body;
  EncodeErrorBody(status, &body);
  Send(conn, FrameType::kError, id, std::move(body));
}

void Transport::SendProtocolError(const ConnectionPtr& conn, uint64_t id,
                                  const Status& status) {
  registry_->RecordProtocolError();
  SendError(conn, id, status);
}

void Transport::HandleFrame(const ConnectionPtr& conn, Frame frame) {
  const uint64_t id = frame.request_id;
  switch (frame.type) {
    case FrameType::kQueryRequest:
      handler_->HandleQuery(*this, conn, id, frame.body,
                            std::chrono::steady_clock::now());
      return;
    case FrameType::kStatsRequest:
      Send(conn, FrameType::kStatsResponse, id, handler_->StatsText(*this));
      return;
    case FrameType::kListRequest:
      handler_->HandleList(*this, conn, id);
      return;
    case FrameType::kShardInfoRequest:
      handler_->HandleShardInfo(*this, conn, id);
      return;
    case FrameType::kPing:
      Send(conn, FrameType::kPong, id);
      return;
    case FrameType::kCreateRequest:
    case FrameType::kAppendRequest:
    case FrameType::kDropRequest:
      handler_->HandleIngest(*this, conn, frame.type, id, frame.body);
      return;
    case FrameType::kCancel: {
      // Fire-and-forget: the cancelled request answers through its own
      // response path, and a cancel that lost the race to completion is
      // simply a no-op.
      std::shared_ptr<CancelToken> token;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (auto it = conn->inflight.find(id); it != conn->inflight.end()) {
          token = it->second;
        }
      }
      if (token != nullptr) token->Cancel();
      return;
    }
    case FrameType::kQueryResponse:
    case FrameType::kStatsResponse:
    case FrameType::kListResponse:
    case FrameType::kError:
    case FrameType::kPong:
    case FrameType::kIngestResponse:
    case FrameType::kMatchResponsePart:
    case FrameType::kShardInfoResponse:
    case FrameType::kFederatedResponse:
      SendProtocolError(
          conn, id, Status::InvalidArgument("response frame sent to server"));
      return;
  }
  SendProtocolError(conn, id,
                    Status::NotSupported(
                        "unknown frame type " +
                        std::to_string(static_cast<unsigned>(frame.type))));
}

std::shared_ptr<CancelToken> Transport::BeginRequest(const ConnectionPtr& conn,
                                                     uint64_t id) {
  auto token = std::make_shared<CancelToken>();
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    duplicate = !conn->inflight.emplace(id, token).second;
    if (!duplicate) {
      conn->pending += 1;
      conn->requests += 1;
    }
  }
  if (duplicate) {
    // Booking it would clobber the first request's token, leaving one of
    // the two uncancellable (and Stop()'s drain unbounded).
    SendProtocolError(conn, id,
                      Status::InvalidArgument("request id " +
                                              std::to_string(id) +
                                              " is already in flight"));
    return nullptr;
  }
  total_pending_.fetch_add(1, std::memory_order_acq_rel);
  return token;
}

void Transport::CompleteRequest(const ConnectionPtr& conn, uint64_t id,
                                std::vector<std::string> wires) {
  // One critical section: the request stays pending until its terminal
  // frame is on the outbox, so neither the idle reaper nor the Stop()
  // drain can observe "no pending work" with the response still in hand.
  // A closed connection drops the frames (nobody can read them) but still
  // retires the booking.
  Push(conn, std::move(wires), id);
  // LAST, after every other touch of `this`: the moment this hits zero,
  // Stop() may proceed to tear the transport down.
  total_pending_.fetch_sub(1, std::memory_order_acq_rel);
}

void Transport::AppendMatchParts(uint64_t id,
                                 std::span<const MatchResult> matches,
                                 std::vector<std::string>* wires) const {
  for (size_t begin = 0; begin < matches.size(); begin += stream_chunk_) {
    std::string body;
    EncodeMatchPartBody(
        matches.subspan(begin, std::min(stream_chunk_, matches.size() - begin)),
        &body);
    wires->push_back(Wire(FrameType::kMatchResponsePart, id, std::move(body)));
  }
}

std::vector<std::string> Transport::EncodeResponseRun(
    uint64_t id, QueryResponse response, bool wants_trace) const {
  const auto serialize_t0 = std::chrono::steady_clock::now();
  std::vector<std::string> wires;
  if (response.status.ok() && stream_chunk_ > 0 &&
      response.matches.size() > stream_chunk_) {
    // Stream: the match list leaves in bounded parts, the final
    // kQueryResponse carries status/stats/latency and no matches.
    AppendMatchParts(id, response.matches, &wires);
    response.matches.clear();
  }
  Frame frame;
  frame.request_id = id;
  if (response.status.ok()) {
    frame.type = FrameType::kQueryResponse;
    // Split encode: the prefix (parts + status/matches/stats) is timed
    // as the serialize span, which is then part of the trace appended
    // behind it — so the wire trace covers its own cost.
    EncodeQueryResponsePrefix(response, &frame.body);
    if (response.trace != nullptr) {
      response.trace->AddSpan(kSpanSerialize, serialize_t0,
                              std::chrono::steady_clock::now());
    }
    AppendQueryResponseTrace(wants_trace ? response.trace.get() : nullptr,
                             &frame.body);
  } else {
    // Typed error on the wire: the client reconstructs the exact
    // Status (ResourceExhausted, DeadlineExceeded, Cancelled, ...).
    frame.type = FrameType::kError;
    EncodeErrorBody(response.status, &frame.body);
    if (response.trace != nullptr) {
      response.trace->AddSpan(kSpanSerialize, serialize_t0,
                              std::chrono::steady_clock::now());
    }
  }
  std::string wire;
  EncodeFrame(frame, &wire);
  wires.push_back(std::move(wire));
  return wires;
}

}  // namespace net
}  // namespace kvmatch
