// TCP front-end for the Coordinator: the same net::Transport as the
// local server (wire protocol, framing, connection handling, HTTP
// sniffing and graceful drain), with every request frame answered by
// federation instead of a local QueryService.
//
// A vanilla net::Client pointed at a CoordServer works unchanged for
// exact-series queries: the answer run (kMatchResponsePart chunks + the
// final kQueryResponse, or a typed kError) is produced by the shared
// Transport::EncodeResponseRun, byte-identical to the owner shard
// answering directly. Pattern queries ('*'/'?' in the series name)
// answer with a kFederatedResponse frame (Client::FederatedQuery). Ingest
// and LIST route through the shard map. kCancel fans out: cancelling a
// federated request id cancels every sub-query on every shard it touched.
//
// Threads: a federated query holds one federation pool worker, which does
// the whole fan-out; ingest and LIST run on the transport's blocking
// helper. The loop thread never waits on a shard.
//
// Ownership: FederationHandler holds the federation state — the
// coordinator's own StatsRegistry, the Coordinator with its shard
// connections, and the federation ThreadPool. CoordServer declares the
// handler before its transport, so the transport is destroyed first: its
// Stop() drains every federated task (which use the coordinator, the pool
// and the registry) while all three are still alive, and only then does
// the handler join its pool and close its shard connections.
#ifndef KVMATCH_COORD_COORD_SERVER_H_
#define KVMATCH_COORD_COORD_SERVER_H_

#include <chrono>
#include <string>

#include "coord/coordinator.h"
#include "coord/shard_map.h"
#include "net/transport.h"
#include "service/service_stats.h"
#include "service/thread_pool.h"

namespace kvmatch {
namespace coord {

class FederationHandler : public net::RequestHandler {
 public:
  /// Federation workers: each in-flight federated request occupies one of
  /// `num_threads` while it waits on shards. A full pool (`max_queue`)
  /// answers ResourceExhausted — the QueryService's shedding contract.
  FederationHandler(ShardMap map, const Coordinator::Options& options,
                    size_t num_threads, size_t max_queue);

  void HandleQuery(net::Transport& transport, const net::ConnectionPtr& conn,
                   uint64_t id, std::string_view body,
                   std::chrono::steady_clock::time_point received) override;
  void HandleIngest(net::Transport& transport,
                    const net::ConnectionPtr& conn, net::FrameType type,
                    uint64_t id, std::string_view body) override;
  void HandleList(net::Transport& transport, const net::ConnectionPtr& conn,
                  uint64_t id) override;
  /// The coordinator's identity: kCoordinatorShardId plus the map's shard
  /// count and fingerprint.
  void HandleShardInfo(net::Transport& transport,
                       const net::ConnectionPtr& conn, uint64_t id) override;
  /// The coordinator's own counters plus one connected gauge per shard.
  std::string StatsText(const net::Transport& transport) const override;

  Coordinator* coordinator() { return &coord_; }
  StatsRegistry* stats_registry() { return &stats_; }

 private:
  StatsRegistry stats_;
  Coordinator coord_;
  ThreadPool pool_;
};

class CoordServer {
 public:
  struct CoordOptions {
    net::Transport::Options server;
    Coordinator::Options coord;
    /// FederationHandler's pool: workers and queue bound.
    size_t num_threads = 4;
    size_t max_queue = 256;
  };

  CoordServer(ShardMap map, CoordOptions options);

  Status Start() { return transport_.Start(); }
  /// Graceful shutdown (Transport::Stop). Idempotent; the destructor
  /// stops too.
  void Stop() { transport_.Stop(); }
  int port() const { return transport_.port(); }
  size_t ActiveConnections() const { return transport_.ActiveConnections(); }
  std::string StatsText() const { return handler_.StatsText(transport_); }

  Coordinator* coordinator() { return handler_.coordinator(); }
  /// The coordinator's own counters (federated queries, cancellations,
  /// protocol errors) — distinct from any shard's registry.
  StatsRegistry* stats_registry() { return handler_.stats_registry(); }

 private:
  FederationHandler handler_;  // declared first: outlives the drain
  net::Transport transport_;
};

}  // namespace coord
}  // namespace kvmatch

#endif  // KVMATCH_COORD_COORD_SERVER_H_
