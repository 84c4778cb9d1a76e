// Scatter-gather query coordinator over a static ShardMap.
//
// Routing: an exact series name goes to its owner shard and the answer
// passes through untouched — a federated single-series query is
// byte-identical to asking that shard directly. A series PATTERN
// ('*'/'?') is planned against the union of the shards' catalogs, fanned
// out as one pipelined batch per owning shard, and merged:
//   - ε-threshold: per-series groups sorted by name, each group's
//     matches in ascending offset order (the executor's slice-concat
//     contract, carried across the wire unchanged);
//   - top-k: one global bounded heap under the total order
//     (distance, series, offset), so the federated answer is
//     deterministic and identical to a single node holding every series.
//
// Failure: a dead, unreachable, or too-slow shard never hangs or fails
// the whole query — it is recorded per shard in the FederatedResponse
// and shards_ok < shards_total marks the result typed-partial.
//
// Fan-out: one thread does it all. A pattern query sends LIST to every
// shard before it waits on any answer, then sends every shard's batch
// before it collects any, so it costs the slowest shard, not the sum of
// the shards.
//
// Cancellation/deadlines: the caller's CancelToken is polled while the
// shard batches are collected; when it fires, kCancel goes to every
// shard's outstanding sub-queries at once. Deadline budgets travel as
// REMAINING milliseconds and shrink at every hop.
#ifndef KVMATCH_COORD_COORDINATOR_H_
#define KVMATCH_COORD_COORDINATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "coord/shard_client.h"
#include "coord/shard_map.h"
#include "net/protocol.h"

namespace kvmatch {
namespace coord {

class Coordinator {
 public:
  struct Options {
    /// Per-shard-call bound and reconnect backoff (see ShardClient).
    ShardClient::Options client;
    /// Verify each shard's kShardInfo identity (shard id + map
    /// fingerprint) on connect. Disable only for in-process clusters
    /// whose shards bind ephemeral ports — their identity cannot be in
    /// the map before they start.
    bool verify_shard_identity = true;
  };

  Coordinator(ShardMap map, Options options);

  /// Exact-series query: forwarded verbatim (by-reference included — the
  /// referenced series lives on the owner) to OwnerOf(series). Transport
  /// or routing failures come back as the response's status, typed.
  QueryResponse ExecuteExact(const net::WireQueryRequest& request,
                             const std::shared_ptr<CancelToken>& cancel);

  /// Pattern query: plan over the shards' catalogs, scatter one batch
  /// per shard, merge per the contract above. Requires literal query
  /// values (a by-reference window is rejected — a pattern has no single
  /// owner to resolve the reference against).
  net::FederatedResponse ExecutePattern(
      const net::WireQueryRequest& request,
      const std::shared_ptr<CancelToken>& cancel);

  /// Union of every shard's directory, sorted by name. A series listed
  /// by several shards (mid-reshard leftovers) appears once — the
  /// owner's copy wins. Unreachable shards are skipped (best-effort
  /// directory; queries against their series will answer typed errors).
  Result<std::vector<net::SeriesInfo>> ListAll();

  /// CREATE, APPEND or DROP (`type`) routed to the owner shard.
  Result<net::IngestAck> Ingest(net::FrameType type,
                                const net::WireIngestRequest& request);

  const ShardMap& map() const { return map_; }
  const ShardClient* shard(uint32_t id) const { return shards_[id].get(); }

 private:
  /// Every shard's directory, in shard order. LIST goes to every shard
  /// before any answer is awaited.
  std::vector<Result<std::vector<net::SeriesInfo>>> ListEach();

  ShardMap map_;
  Options options_;
  std::vector<std::unique_ptr<ShardClient>> shards_;
};

}  // namespace coord
}  // namespace kvmatch

#endif  // KVMATCH_COORD_COORDINATOR_H_
