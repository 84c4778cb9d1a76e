// The coordinator's side of one shard: net::Client connections leased
// out one call at a time, with reconnect/backoff and cluster-identity
// verification on every dial. Waits are bounded, so a cancel or a dead
// shard never hangs the coordinator.
//
// Thread model: a call takes an idle connection, or dials one, and uses
// it with no ShardClient lock held, so concurrent calls on one shard are
// all in flight at once. mu_ guards only the idle list, the dial backoff
// and the open-connection count; it is never held across a dial, a send
// or a wait. The idle list needs no cap: it never holds more connections
// than there are threads calling in at once.
#ifndef KVMATCH_COORD_SHARD_CLIENT_H_
#define KVMATCH_COORD_SHARD_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "coord/shard_map.h"
#include "net/client.h"
#include "net/protocol.h"

namespace kvmatch {
namespace coord {

class ShardClient {
 public:
  struct Options {
    /// Upper bound on any one remote call (dial, batch, list). A shard
    /// that goes silent longer than this yields DeadlineExceeded; its
    /// outstanding requests are Forgotten so the connection survives.
    double call_timeout_ms = 10'000.0;
    /// Reconnect backoff after a failed dial or a broken connection:
    /// doubles from initial to max; a successful dial resets it.
    double backoff_initial_ms = 100.0;
    double backoff_max_ms = 3'200.0;
    /// When nonzero, the shard's kShardInfo answer must carry exactly
    /// this map fingerprint and shard id, or the connection is refused
    /// (a shard started under a different topology must not be routed
    /// to — series would silently come back missing).
    uint64_t expect_fingerprint = 0;
    uint32_t expect_shard_id = net::kStandaloneShardId;
  };

  /// Requests in flight on one leased connection. When the call ends the
  /// connection goes back to the idle list — or, if the call broke it, is
  /// closed, the idle connections with it, and the dial backoff is armed.
  class Call {
   public:
    Call(Call&&) noexcept = default;
    ~Call() { End(Status::OK()); }

   private:
    friend class ShardClient;
    Call(ShardClient* shard, std::unique_ptr<net::Client> conn)
        : shard_(shard), conn_(std::move(conn)) {}
    void End(const Status& broken_by);

    ShardClient* shard_;
    std::unique_ptr<net::Client> conn_;
    std::map<uint64_t, size_t> slot_;  // outstanding request id → answer
    std::chrono::steady_clock::time_point deadline_{};
  };

  ShardClient(ShardEndpoint endpoint, Options options);

  /// Leases a connection (dialing and verifying the shard's identity if
  /// none is idle) and hands it back. While a dial backoff is pending,
  /// fails fast with ResourceExhausted instead of re-dialing.
  Status EnsureConnected();

  /// Sends every request, pipelined, on one leased connection. The wait
  /// budget — call_timeout_ms, or `deadline_ms` when positive and smaller
  /// — starts now.
  Result<Call> Dispatch(std::span<const net::WireQueryRequest> requests,
                        double deadline_ms = 0.0);

  /// Collects the calls in order on this thread, handing `on_collected`
  /// each one's index and its answers in request order, or its failure.
  /// Later calls' answers queue in their sockets meanwhile, so this costs
  /// the slowest shard. When `cancel` fires, kCancel goes to every
  /// outstanding request of every call at once, and collection goes on
  /// until the shards answer Cancelled. A call silent past its budget
  /// fails with DeadlineExceeded; a kError answer is that slot's status.
  static void Collect(
      std::span<Result<Call>> calls,
      const std::shared_ptr<CancelToken>& cancel,
      const std::function<void(size_t, Result<std::vector<QueryResponse>>)>&
          on_collected);

  /// LIST in two halves, so a caller can send to every shard before it
  /// waits on any. The wait is bounded by call_timeout_ms from the send;
  /// a failed send's status passes straight through WaitList.
  Result<Call> SendList();
  Result<std::vector<net::SeriesInfo>> WaitList(Result<Call> call);

  /// CREATE, APPEND or DROP (`type`), one round trip bounded by
  /// call_timeout_ms.
  Result<net::IngestAck> Ingest(net::FrameType type,
                                const net::WireIngestRequest& request);

  /// Whether any verified connection is open, leased or idle. Never waits
  /// on a shard (observability / tests).
  bool connected() const;

 private:
  Result<Call> Lease();
  /// Connects and checks the shard's identity, with no lock held.
  Result<std::unique_ptr<net::Client>> Dial() const;
  /// Drops the idle connections and arms the dial backoff. Requires mu_.
  void FailLocked(const Status& why);

  const ShardEndpoint endpoint_;
  const Options options_;
  const std::string name_;  // "shard host:port", for error messages

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<net::Client>> idle_;
  size_t open_ = 0;          // verified connections, leased or idle
  double backoff_ms_ = 0.0;  // 0 → next dial is immediate
  std::chrono::steady_clock::time_point next_dial_{};
  Status last_error_ = Status::OK();
};

}  // namespace coord
}  // namespace kvmatch

#endif  // KVMATCH_COORD_SHARD_CLIENT_H_
