#include "coord/coord_server.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace kvmatch {
namespace coord {

FederationHandler::FederationHandler(ShardMap map,
                                     const Coordinator::Options& options,
                                     size_t num_threads, size_t max_queue)
    : coord_(std::move(map), options),
      pool_(std::max<size_t>(1, num_threads), max_queue) {}

CoordServer::CoordServer(ShardMap map, CoordOptions options)
    : handler_(std::move(map), options.coord, options.num_threads,
               options.max_queue),
      transport_(std::move(options.server), &handler_,
                 handler_.stats_registry()) {}

std::string FederationHandler::StatsText(
    const net::Transport& transport) const {
  ServiceStatsSnapshot snap = stats_.Snapshot();
  transport.FillConnectionStats(&snap);
  for (uint32_t s = 0; s < coord_.map().num_shards(); ++s) {
    snap.Add(Metric::kCoordShardConnected, std::to_string(s),
             coord_.shard(s)->connected() ? 1.0 : 0.0);
  }
  return StatsToText(snap);
}

void FederationHandler::HandleShardInfo(net::Transport& transport,
                                        const net::ConnectionPtr& conn,
                                        uint64_t id) {
  net::ShardInfo info;
  info.shard_id = net::kCoordinatorShardId;
  info.num_shards = static_cast<uint32_t>(coord_.map().num_shards());
  info.map_fingerprint = coord_.map().Fingerprint();
  std::string body;
  net::EncodeShardInfoBody(info, &body);
  transport.Send(conn, net::FrameType::kShardInfoResponse, id,
                 std::move(body));
}

void FederationHandler::HandleQuery(
    net::Transport& transport, const net::ConnectionPtr& conn, uint64_t id,
    std::string_view body, std::chrono::steady_clock::time_point received) {
  net::WireQueryRequest wire_request;
  if (Status st = net::DecodeQueryRequestBody(body, &wire_request);
      !st.ok()) {
    transport.SendProtocolError(conn, id, st);
    return;
  }
  // Booked before any work, so a kCancel can never race ahead of its
  // target — and the token is what ShardClient::Collect polls to fan
  // kCancel to every shard.
  auto token = transport.BeginRequest(conn, id);
  if (token == nullptr) return;
  auto task = [this, &transport, conn, id, token, received,
               wire_request = std::move(wire_request)]() mutable {
    stats_.Add(Metric::kQueriesInFlight);
    // Re-anchor the deadline budget at this hop: queue wait in the
    // federation pool plus wire time is charged, never granted twice.
    wire_request.request.timeout_ms = net::RemainingBudgetMs(
        wire_request.request.timeout_ms, received);
    const std::string series = wire_request.request.series;
    std::vector<std::string> wires;
    if (IsGlobPattern(series)) {
      net::FederatedResponse fed = coord_.ExecutePattern(wire_request, token);
      stats_.RecordQuery(series, fed.latency_ms, fed.stats, fed.status.ok());
      if (fed.status.IsCancelled()) stats_.Add(Metric::kCancelled);
      net::Frame frame;
      frame.type = net::FrameType::kFederatedResponse;
      frame.request_id = id;
      net::EncodeFederatedResponseBody(fed, &frame.body);
      std::string wire;
      net::EncodeFrame(frame, &wire);
      wires.push_back(std::move(wire));
    } else {
      QueryResponse response = coord_.ExecuteExact(wire_request, token);
      stats_.RecordQuery(series, response.latency_ms, response.stats,
                         response.status.ok());
      if (response.status.IsCancelled()) stats_.Add(Metric::kCancelled);
      // Shared encoder: the federated answer for an exact series is
      // byte-identical to the owner shard's own answer run.
      wires = transport.EncodeResponseRun(
          id, std::move(response), wire_request.request.collect_trace);
    }
    stats_.Add(Metric::kQueriesInFlight, -1);
    transport.CompleteRequest(conn, id, std::move(wires));
  };
  if (Status st = pool_.Submit(std::move(task)); !st.ok()) {
    // Shed load with the booking retired, same contract as the service.
    stats_.Add(Metric::kRejected);
    QueryResponse shed;
    shed.status = st;
    transport.CompleteRequest(
        conn, id, transport.EncodeResponseRun(id, std::move(shed), false));
  }
}

void FederationHandler::HandleIngest(net::Transport& transport,
                                     const net::ConnectionPtr& conn,
                                     net::FrameType type, uint64_t id,
                                     std::string_view body) {
  net::WireIngestRequest request;
  if (Status st = net::DecodeIngestRequestBody(body, &request); !st.ok()) {
    transport.SendProtocolError(conn, id, st);
    return;
  }
  // The shard round trip blocks on socket I/O (bounded by the client
  // call timeout) — run it on the blocking-work thread so the reactor
  // loop keeps serving every other connection. This connection's frame
  // processing is suspended meanwhile, preserving its pipeline order.
  transport.RunBlocking(conn, [this, &transport, conn, type, id,
                               request = std::move(request)]() mutable {
    Result<net::IngestAck> ack = coord_.Ingest(type, request);
    if (!ack.ok()) {
      transport.SendError(conn, id, ack.status());
      return;
    }
    std::string body;
    net::EncodeIngestResponseBody(*ack, &body);
    transport.Send(conn, net::FrameType::kIngestResponse, id,
                   std::move(body));
  });
}

void FederationHandler::HandleList(net::Transport& transport,
                                   const net::ConnectionPtr& conn,
                                   uint64_t id) {
  // Sends LIST to every shard, then waits on each: blocking I/O, so off
  // the loop like ingest above.
  transport.RunBlocking(conn, [this, &transport, conn, id] {
    auto series = coord_.ListAll();
    if (!series.ok()) {
      transport.SendError(conn, id, series.status());
      return;
    }
    std::string body;
    net::EncodeListResponseBody(*series, &body);
    transport.Send(conn, net::FrameType::kListResponse, id, std::move(body));
  });
}

}  // namespace coord
}  // namespace kvmatch
