#include "coord/shard_client.h"

#include <algorithm>

namespace kvmatch {
namespace coord {

namespace {

/// Cancel-poll granularity inside Collect: each bounded wait is at most
/// this long, so a fired token turns into kCancel frames on the wire
/// within one slice.
constexpr double kCancelPollMs = 20.0;

/// Statuses after which the connection's framing can no longer be
/// trusted (or the peer is gone): drop and redial. Typed server answers
/// (InvalidArgument, NotFound, ResourceExhausted, ...) leave the
/// connection healthy.
bool IsTransportFailure(const Status& s) {
  return s.IsIOError() || s.IsCorruption();
}

/// What breaks a connection after a one-answer wait: a transport failure,
/// or a timeout, which leaves the answer still owed on it.
Status BrokenBy(const Status& s) {
  return IsTransportFailure(s) || s.IsDeadlineExceeded() ? s : Status::OK();
}

std::chrono::steady_clock::time_point After(double ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

ShardClient::ShardClient(ShardEndpoint endpoint, Options options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      name_("shard " + endpoint_.host + ":" +
            std::to_string(endpoint_.port)) {}

bool ShardClient::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_ > 0;
}

void ShardClient::FailLocked(const Status& why) {
  open_ -= idle_.size();
  idle_.clear();
  last_error_ = why;
  // Connections that break together (a shard restart) arm the backoff
  // once, not once each.
  if (std::chrono::steady_clock::now() < next_dial_) return;
  backoff_ms_ = backoff_ms_ <= 0.0
                    ? options_.backoff_initial_ms
                    : std::min(backoff_ms_ * 2.0, options_.backoff_max_ms);
  next_dial_ = After(backoff_ms_);
}

void ShardClient::Call::End(const Status& broken_by) {
  if (conn_ == nullptr) return;
  std::unique_ptr<net::Client> conn = std::move(conn_);
  std::lock_guard<std::mutex> lock(shard_->mu_);
  if (broken_by.ok()) {
    shard_->idle_.push_back(std::move(conn));
    return;
  }
  shard_->open_ -= 1;
  shard_->FailLocked(broken_by);
}

Result<std::unique_ptr<net::Client>> ShardClient::Dial() const {
  auto dialed = net::Client::Connect(endpoint_.host, endpoint_.port);
  if (!dialed.ok()) return dialed.status();
  // Identity check before first use: a shard started under a different
  // map (or a standalone server at the right address by accident) is
  // refused — routing against it would silently lose series.
  (*dialed)->set_wait_timeout_ms(options_.call_timeout_ms);
  auto info = (*dialed)->GetShardInfo();
  if (!info.ok()) return info.status();
  if (options_.expect_fingerprint != 0 &&
      (info->map_fingerprint != options_.expect_fingerprint ||
       info->shard_id != options_.expect_shard_id)) {
    return Status::InvalidArgument(
        name_ + " identifies as shard " + std::to_string(info->shard_id) +
        " fingerprint " + std::to_string(info->map_fingerprint) +
        ", expected shard " + std::to_string(options_.expect_shard_id) +
        " fingerprint " + std::to_string(options_.expect_fingerprint));
  }
  return dialed;
}

Result<ShardClient::Call> ShardClient::Lease() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::chrono::steady_clock::now() < next_dial_) {
      return Status::ResourceExhausted(name_ + " in dial backoff after: " +
                                       last_error_.ToString());
    }
    if (!idle_.empty()) {
      Call call(this, std::move(idle_.back()));
      idle_.pop_back();
      return call;
    }
  }
  auto dialed = Dial();
  std::lock_guard<std::mutex> lock(mu_);
  if (!dialed.ok()) {
    FailLocked(dialed.status());
    return dialed.status();
  }
  open_ += 1;
  backoff_ms_ = 0.0;
  last_error_ = Status::OK();
  return Call(this, std::move(dialed).value());
}

Status ShardClient::EnsureConnected() { return Lease().status(); }

Result<net::IngestAck> ShardClient::Ingest(
    net::FrameType type, const net::WireIngestRequest& request) {
  auto call = Lease();
  if (!call.ok()) return call.status();
  net::Client& conn = *call->conn_;
  conn.set_wait_timeout_ms(options_.call_timeout_ms);
  Result<net::IngestAck> ack = net::IngestAck{};
  if (type == net::FrameType::kCreateRequest) {
    ack = conn.CreateSeries(request.series, request.values);
  } else if (type == net::FrameType::kAppendRequest) {
    ack = conn.AppendSeries(request.series, request.values);
  } else if (Status st = conn.DropSeries(request.series); !st.ok()) {
    ack = st;
  }
  call->End(BrokenBy(ack.status()));
  return ack;
}

Result<ShardClient::Call> ShardClient::Dispatch(
    std::span<const net::WireQueryRequest> requests, double deadline_ms) {
  auto call = Lease();
  if (!call.ok()) return call.status();
  call->deadline_ = After(deadline_ms > 0.0
                              ? std::min(options_.call_timeout_ms, deadline_ms)
                              : options_.call_timeout_ms);
  for (size_t i = 0; i < requests.size(); ++i) {
    auto id = call->conn_->SendRequest(requests[i]);
    if (!id.ok()) {
      call->End(id.status());
      return id.status();
    }
    call->slot_[*id] = i;
  }
  return call;
}

void ShardClient::Collect(
    std::span<Result<Call>> calls, const std::shared_ptr<CancelToken>& cancel,
    const std::function<void(size_t, Result<std::vector<QueryResponse>>)>&
        on_collected) {
  bool cancel_sent = false;
  for (size_t c = 0; c < calls.size(); ++c) {
    if (!calls[c].ok()) {
      on_collected(c, calls[c].status());
      continue;
    }
    Call& call = *calls[c];
    std::vector<QueryResponse> answers(call.slot_.size());
    Status failure = Status::OK();
    call.conn_->set_wait_timeout_ms(kCancelPollMs);
    while (!call.slot_.empty()) {
      if (!cancel_sent && cancel != nullptr && cancel->cancelled()) {
        // kCancel to every outstanding sub-query on every shard at once,
        // then keep collecting: the shards answer Cancelled through the
        // normal response path, which leaves each connection clean.
        for (auto& other : calls.subspan(c)) {
          if (!other.ok()) continue;
          for (const auto& [id, index] : other->slot_) {
            (void)other->conn_->Cancel(id);
          }
        }
        cancel_sent = true;
      }
      auto answer = call.conn_->WaitAnyResponse();
      if (answer.ok()) {
        // An id this call never sent is a late answer that an earlier
        // lease of the connection gave up on.
        if (auto it = call.slot_.find(answer->first);
            it != call.slot_.end()) {
          answers[it->second] = std::move(answer->second);
          call.slot_.erase(it);
        }
        continue;
      }
      if (!answer.status().IsDeadlineExceeded()) {
        failure = answer.status();
        break;
      }
      if (std::chrono::steady_clock::now() < call.deadline_) continue;
      // Too slow: abandon the stragglers (their late answers will be
      // discarded on arrival, not parked forever) but keep the
      // connection — a slow shard is not a dead one.
      for (const auto& [id, index] : call.slot_) {
        (void)call.conn_->Cancel(id);
        call.conn_->Forget(id);
      }
      const size_t n = call.slot_.size();
      failure = Status::DeadlineExceeded(
          call.shard_->name_ + " did not answer " + std::to_string(n) +
          " sub-quer" + (n == 1 ? "y" : "ies") + " within its budget");
      break;
    }
    call.End(IsTransportFailure(failure) ? failure : Status::OK());
    using Answers = Result<std::vector<QueryResponse>>;
    on_collected(c, failure.ok() ? Answers(std::move(answers)) : failure);
  }
}

Result<ShardClient::Call> ShardClient::SendList() {
  auto call = Lease();
  if (!call.ok()) return call.status();
  call->deadline_ = After(options_.call_timeout_ms);
  auto id = call->conn_->SendList();
  if (!id.ok()) {
    call->End(id.status());
    return id.status();
  }
  call->slot_[*id] = 0;
  return call;
}

Result<std::vector<net::SeriesInfo>> ShardClient::WaitList(
    Result<Call> call) {
  if (!call.ok()) return call.status();
  // At least 1 ms is left for the wait, so an answer that already
  // arrived is still read.
  call->conn_->set_wait_timeout_ms(std::max(
      1.0, std::chrono::duration<double, std::milli>(
               call->deadline_ - std::chrono::steady_clock::now())
               .count()));
  auto listing = call->conn_->WaitList(call->slot_.begin()->first);
  call->End(BrokenBy(listing.status()));
  return listing;
}

}  // namespace coord
}  // namespace kvmatch
