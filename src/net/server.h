// Multi-client TCP front-end over one Catalog + QueryService
// (pazpar2-style session multiplexing: one server process, many
// concurrent connections, each pipelining independent queries over the
// shared catalog).
//
// Two pieces, composed rather than inherited:
//
//   * LocalHandler — the request semantics: queries resolve against the
//     catalog and run on the QueryService pool (threshold queries stream
//     verified slices while later slices still run), ingest frames run
//     the catalog write behind the shard-ownership fence, LIST and
//     SHARDINFO read the catalog directory, and slow queries land in the
//     catalog's EventLog as `slow_query` events.
//   * net::Transport — the epoll reactor, framing, backpressure, HTTP
//     scrapes and the bounded drain (see net/transport.h).
//
// Server owns both. The handler is declared before the transport, so the
// transport is destroyed — and its destructor's Stop() drains every
// in-flight request — while the handler it calls into is still alive.
// The Catalog and QueryService are the caller's and must outlive the
// server.
#ifndef KVMATCH_NET_SERVER_H_
#define KVMATCH_NET_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "net/transport.h"
#include "service/catalog.h"
#include "service/query_service.h"

namespace kvmatch {
namespace net {

class LocalHandler : public RequestHandler {
 public:
  struct Options {
    /// Cluster identity answered on kShardInfoRequest: this process's
    /// shard id and the shard count / fingerprint of the map that
    /// assigned it. Defaults mean "standalone: not part of a cluster".
    uint32_t shard_id = kStandaloneShardId;
    uint32_t num_shards = 0;
    uint64_t shard_map_fingerprint = 0;
    /// When set, ingest frames for series this predicate rejects are
    /// refused with InvalidArgument — a misconfigured client writing
    /// through a stale shard map fails loudly instead of splitting a
    /// series across shards. Null accepts everything.
    std::function<bool(const std::string&)> owns_series;
    /// Slow-query log threshold: a query whose end-to-end latency reaches
    /// this emits a `slow_query` event (series, status, latency_ms and
    /// the queue/probe/verify/serialize span array) into the catalog's
    /// EventLog. Tracing is forced server-side for every query while
    /// enabled, whether or not the client asked for a trace. 0 disables;
    /// so does a catalog without an EventLog.
    double slow_query_ms = 0.0;
  };

  LocalHandler(Catalog* catalog, QueryService* service, Options options);

  void HandleQuery(Transport& transport, const ConnectionPtr& conn,
                   uint64_t id, std::string_view body,
                   std::chrono::steady_clock::time_point received) override;
  /// Decodes on the loop thread, then runs the catalog write on the
  /// blocking-work thread (catalog writes are serialized; other
  /// connections' queries keep flowing).
  void HandleIngest(Transport& transport, const ConnectionPtr& conn,
                    FrameType type, uint64_t id,
                    std::string_view body) override;
  void HandleList(Transport& transport, const ConnectionPtr& conn,
                  uint64_t id) override;
  void HandleShardInfo(Transport& transport, const ConnectionPtr& conn,
                       uint64_t id) override;
  /// The service's Prometheus-style dump plus one block per live
  /// connection (requests, QPS, connection age).
  std::string StatsText(const Transport& transport) const override;

 private:
  Catalog* const catalog_;
  QueryService* const service_;
  const Options options_;
};

class Server {
 public:
  struct Options : Transport::Options, LocalHandler::Options {};

  Server(Catalog* catalog, QueryService* service, Options options);

  Status Start() { return transport_.Start(); }
  /// Graceful shutdown (Transport::Stop). Idempotent; the destructor
  /// stops too.
  void Stop() { transport_.Stop(); }
  int port() const { return transport_.port(); }
  size_t ActiveConnections() const { return transport_.ActiveConnections(); }
  /// What a STATS frame returns.
  std::string StatsText() const { return handler_.StatsText(transport_); }

 private:
  LocalHandler handler_;  // declared first: outlives the transport's drain
  Transport transport_;
};

}  // namespace net
}  // namespace kvmatch

#endif  // KVMATCH_NET_SERVER_H_
