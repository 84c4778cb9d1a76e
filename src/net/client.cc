#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace kvmatch {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

/// Unwraps a kError frame into the Status it carries, normalizing the
/// ill-formed cases (undecodable body, carried OK) to non-OK errors.
Status CarriedError(const Frame& frame) {
  Status carried;
  if (Status st = DecodeErrorBody(frame.body, &carried); !st.ok()) return st;
  if (carried.ok()) return Status::Internal("server sent an OK error frame");
  return carried;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                int port) {
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    return Status::InvalidArgument("cannot resolve " + host);
  }
  int fd = -1;
  Status last = Status::IOError("no addresses for " + host);
  for (struct addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, 0);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) return last;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd));
}

Client::Client(int fd) : fd_(fd) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> Client::SendFrame(FrameType type, std::string body) {
  Frame frame;
  frame.type = type;
  frame.request_id = next_id_++;
  frame.body = std::move(body);
  std::string wire;
  EncodeFrame(frame, &wire);
  KVMATCH_RETURN_NOT_OK(WriteAll(fd_, wire));
  return frame.request_id;
}

Result<uint64_t> Client::SendRequest(const QueryRequest& request) {
  WireQueryRequest wire_request;
  wire_request.request = request;
  return SendRequest(wire_request);
}

Result<uint64_t> Client::SendRequest(const WireQueryRequest& request) {
  std::string body;
  EncodeQueryRequestBody(request, &body);
  return SendFrame(FrameType::kQueryRequest, std::move(body));
}

void Client::Forget(uint64_t id) {
  const bool had_final = parked_.erase(id) > 0;
  parked_parts_.erase(id);
  // Only tombstone ids whose terminal frame is still owed; a request that
  // already answered will never send another frame.
  if (!had_final) forgotten_.insert(id);
}

Result<Frame> Client::WaitFrame(uint64_t id) {
  if (id != 0) {
    if (auto it = parked_.find(id); it != parked_.end()) {
      Frame frame = std::move(it->second);
      parked_.erase(it);
      return frame;
    }
  } else if (!parked_.empty()) {
    auto it = parked_.begin();
    Frame frame = std::move(it->second);
    parked_.erase(it);
    return frame;
  }
  const auto deadline =
      wait_timeout_ms_ > 0.0
          ? std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        wait_timeout_ms_))
          : std::chrono::steady_clock::time_point::max();
  char buf[64 * 1024];
  for (;;) {
    Frame frame;
    Status error;
    const FrameDecoder::Event event = decoder_.Next(&frame, &error);
    if (event == FrameDecoder::Event::kBadFrame ||
        event == FrameDecoder::Event::kFatal) {
      return Status::Corruption("response stream: " + error.message());
    }
    if (event == FrameDecoder::Event::kFrame) {
      if (frame.type == FrameType::kError && frame.request_id == 0) {
        // Stream-level error from the server (it could not attribute the
        // failure to a request we could match).
        return CarriedError(frame);
      }
      if (frame.type == FrameType::kMatchResponsePart) {
        // A streamed chunk, never a "final" frame: accumulate it for its
        // request (whether or not that is the id being waited on) and
        // keep reading. Chunks of an abandoned request are dropped.
        if (forgotten_.count(frame.request_id) > 0) continue;
        if (Status st = DecodeMatchPartBody(
                frame.body, &parked_parts_[frame.request_id]);
            !st.ok()) {
          return Status::Corruption("response stream: " + st.message());
        }
        continue;
      }
      // A final frame. Terminal errors never carry matches, so any
      // chunks streamed before the failure are dead weight — erase them
      // now instead of waiting for a WaitResponse that an abandoning
      // caller (cancel-and-move-on) will never make.
      if (frame.type == FrameType::kError) {
        parked_parts_.erase(frame.request_id);
      }
      if (auto it = forgotten_.find(frame.request_id);
          it != forgotten_.end()) {
        // Terminal frame of an abandoned request: the tombstone retires.
        forgotten_.erase(it);
        parked_parts_.erase(frame.request_id);
        continue;
      }
      if (frame.request_id == id || id == 0) return frame;
      parked_[frame.request_id] = std::move(frame);
      continue;
    }
    if (deadline != std::chrono::steady_clock::time_point::max()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return Status::DeadlineExceeded("no response within the wait"
                                        " budget");
      }
      const int wait_ms = static_cast<int>(std::min<int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
                  .count() +
              1,
          1000));
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Errno("poll");
      }
      if (ready == 0) continue;  // re-check the deadline
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) return Status::IOError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

Result<QueryResponse> Client::AssembleResponse(Result<Frame> frame,
                                               uint64_t id) {
  // A failed wait consumes nothing: a DeadlineExceeded wait may be
  // retried (or the id Forgotten), and either path owns the cleanup.
  if (!frame.ok()) return frame.status();
  // The final frame is here: consume the accumulated stream chunks. On
  // the error paths below they are dropped (the server never streams
  // before an error, so this is purely defensive).
  std::vector<MatchResult> parts;
  if (auto it = parked_parts_.find(id); it != parked_parts_.end()) {
    parts = std::move(it->second);
    parked_parts_.erase(it);
  }
  if (frame->type == FrameType::kError) {
    QueryResponse response;
    response.status = CarriedError(*frame);
    return response;
  }
  if (frame->type != FrameType::kQueryResponse) {
    return Status::Corruption("unexpected frame type answering a query");
  }
  QueryResponse response;
  KVMATCH_RETURN_NOT_OK(DecodeQueryResponseBody(frame->body, &response));
  if (!parts.empty()) {
    // Streamed: the final frame is matchless; the chunks, concatenated in
    // arrival order, are the full offset-ordered match list.
    parts.insert(parts.end(), response.matches.begin(),
                 response.matches.end());
    response.matches = std::move(parts);
  }
  return response;
}

Result<QueryResponse> Client::WaitResponse(uint64_t id) {
  return AssembleResponse(WaitFrame(id), id);
}

Result<std::pair<uint64_t, QueryResponse>> Client::WaitAnyResponse() {
  auto frame = WaitFrame(0);
  if (!frame.ok()) return frame.status();
  const uint64_t id = frame->request_id;
  auto response = AssembleResponse(std::move(frame), id);
  if (!response.ok()) return response.status();
  return std::make_pair(id, std::move(response).value());
}

Status Client::Cancel(uint64_t id) {
  Frame frame;
  frame.type = FrameType::kCancel;
  frame.request_id = id;  // targets the query with this id, not a new one
  std::string wire;
  EncodeFrame(frame, &wire);
  return WriteAll(fd_, wire);
}

Result<QueryResponse> Client::Query(const QueryRequest& request) {
  auto id = SendRequest(request);
  if (!id.ok()) return id.status();
  return WaitResponse(*id);
}

Result<IngestAck> Client::IngestRoundTrip(FrameType type,
                                          const std::string& name,
                                          std::span<const double> values) {
  WireIngestRequest request;
  request.series = name;
  request.values.assign(values.begin(), values.end());
  std::string body;
  EncodeIngestRequestBody(request, &body);
  auto frame = RoundTrip(type, std::move(body), FrameType::kIngestResponse,
                         "ingest");
  if (!frame.ok()) return frame.status();
  IngestAck ack;
  KVMATCH_RETURN_NOT_OK(DecodeIngestResponseBody(frame->body, &ack));
  return ack;
}

Result<IngestAck> Client::CreateSeries(const std::string& name,
                                       std::span<const double> values) {
  return IngestRoundTrip(FrameType::kCreateRequest, name, values);
}

Result<IngestAck> Client::AppendSeries(const std::string& name,
                                       std::span<const double> values) {
  return IngestRoundTrip(FrameType::kAppendRequest, name, values);
}

Status Client::DropSeries(const std::string& name) {
  auto ack = IngestRoundTrip(FrameType::kDropRequest, name, {});
  return ack.status();
}

Result<Frame> Client::WaitTyped(uint64_t id, FrameType type,
                                const char* what) {
  auto frame = WaitFrame(id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) return CarriedError(*frame);
  if (frame->type != type) {
    return Status::Corruption(
        std::string("unexpected frame type answering ") + what);
  }
  return frame;
}

Result<Frame> Client::RoundTrip(FrameType type, std::string body,
                                FrameType answer, const char* what) {
  auto id = SendFrame(type, std::move(body));
  if (!id.ok()) return id.status();
  return WaitTyped(*id, answer, what);
}

Result<std::string> Client::StatsText() {
  auto frame = RoundTrip(FrameType::kStatsRequest, "",
                         FrameType::kStatsResponse, "STATS");
  if (!frame.ok()) return frame.status();
  return std::move(frame->body);
}

Result<std::vector<SeriesInfo>> Client::ListSeries() {
  auto id = SendList();
  if (!id.ok()) return id.status();
  return WaitList(*id);
}

Result<std::vector<SeriesInfo>> Client::WaitList(uint64_t id) {
  auto frame = WaitTyped(id, FrameType::kListResponse, "LIST");
  if (!frame.ok()) return frame.status();
  std::vector<SeriesInfo> series;
  KVMATCH_RETURN_NOT_OK(DecodeListResponseBody(frame->body, &series));
  return series;
}

Result<ShardInfo> Client::GetShardInfo() {
  auto frame = RoundTrip(FrameType::kShardInfoRequest, "",
                         FrameType::kShardInfoResponse, "SHARDINFO");
  if (!frame.ok()) return frame.status();
  ShardInfo info;
  KVMATCH_RETURN_NOT_OK(DecodeShardInfoBody(frame->body, &info));
  return info;
}

Result<FederatedResponse> Client::FederatedQuery(
    const WireQueryRequest& request) {
  auto id = SendRequest(request);
  if (!id.ok()) return id.status();
  auto frame = WaitFrame(*id);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) {
    FederatedResponse response;
    response.status = CarriedError(*frame);
    return response;
  }
  if (frame->type != FrameType::kFederatedResponse) {
    return Status::Corruption(
        "unexpected frame type answering a federated query");
  }
  FederatedResponse response;
  KVMATCH_RETURN_NOT_OK(DecodeFederatedResponseBody(frame->body, &response));
  return response;
}

Status Client::Ping() {
  return RoundTrip(FrameType::kPing, "", FrameType::kPong, "PING").status();
}

}  // namespace net
}  // namespace kvmatch
