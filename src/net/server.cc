#include "net/server.h"

#include <cstdio>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/event_log.h"
#include "service/trace.h"

namespace kvmatch {
namespace net {

LocalHandler::LocalHandler(Catalog* catalog, QueryService* service,
                           Options options)
    : catalog_(catalog), service_(service), options_(std::move(options)) {}

Server::Server(Catalog* catalog, QueryService* service, Options options)
    : handler_(catalog, service, options),
      transport_(std::move(options), &handler_, service->stats_registry()) {}

std::string LocalHandler::StatsText(const Transport& transport) const {
  // Via QueryService::Stats() (not the registry directly) so the pool's
  // queue-depth / busy-worker gauges are populated.
  return StatsToText(service_->Stats()) + transport.ConnectionStatsText();
}

void LocalHandler::HandleList(Transport& transport, const ConnectionPtr& conn,
                              uint64_t id) {
  std::vector<SeriesInfo> series;
  for (const auto& name : catalog_->ListSeries()) {
    SeriesInfo info;
    info.name = name;
    // Directory metadata, not a session open: listing must stay cheap
    // even when the catalog holds many cold series.
    if (auto length = catalog_->SeriesLength(name); length.ok()) {
      info.length = *length;
    }
    series.push_back(std::move(info));
  }
  std::string body;
  EncodeListResponseBody(series, &body);
  transport.Send(conn, FrameType::kListResponse, id, std::move(body));
}

void LocalHandler::HandleShardInfo(Transport& transport,
                                   const ConnectionPtr& conn, uint64_t id) {
  ShardInfo info;
  info.shard_id = options_.shard_id;
  info.num_shards = options_.num_shards;
  info.map_fingerprint = options_.shard_map_fingerprint;
  info.series_count = catalog_->ListSeries().size();
  std::string body;
  EncodeShardInfoBody(info, &body);
  transport.Send(conn, FrameType::kShardInfoResponse, id, std::move(body));
}

void LocalHandler::HandleIngest(Transport& transport,
                                const ConnectionPtr& conn, FrameType type,
                                uint64_t id, std::string_view body) {
  WireIngestRequest request;
  if (Status st = DecodeIngestRequestBody(body, &request); !st.ok()) {
    transport.SendProtocolError(conn, id, st);
    return;
  }
  // Shard-ownership fence: a client writing through a stale shard map
  // must fail loudly here, not silently split a series across shards.
  if (options_.owns_series && !options_.owns_series(request.series)) {
    transport.SendError(
        conn, id,
        Status::InvalidArgument(
            "series '" + request.series +
            "' is not owned by this shard (stale shard map?)"));
    return;
  }
  // The catalog write (journal + chunk puts + index merge) can take long
  // enough to stall every other connection if run on the loop — hand it
  // to the blocking-work thread. This connection's frame processing is
  // suspended meanwhile, so its pipelined requests still execute in
  // order; other connections keep flowing.
  transport.RunBlocking(conn, [this, &transport, conn, type, id,
                               request = std::move(request)]() mutable {
    Status st;
    IngestAck ack;
    switch (type) {
      case FrameType::kCreateRequest:
        st = catalog_->CreateSeries(request.series,
                                    TimeSeries(std::move(request.values)));
        break;
      case FrameType::kAppendRequest:
        st = catalog_->AppendSeries(request.series, request.values);
        break;
      default:
        st = catalog_->DropSeries(request.series);
        break;
    }
    if (st.ok() && type != FrameType::kDropRequest) {
      if (auto epoch = catalog_->SeriesEpoch(request.series); epoch.ok()) {
        ack.epoch = *epoch;
      }
      if (auto length = catalog_->SeriesLength(request.series);
          length.ok()) {
        ack.length = *length;
      }
    }
    if (!st.ok()) {
      transport.SendError(conn, id, st);
      return;
    }
    std::string body;
    EncodeIngestResponseBody(ack, &body);
    transport.Send(conn, FrameType::kIngestResponse, id, std::move(body));
  });
}

void LocalHandler::HandleQuery(
    Transport& transport, const ConnectionPtr& conn, uint64_t id,
    std::string_view body, std::chrono::steady_clock::time_point received) {
  WireQueryRequest wire_request;
  if (Status st = DecodeQueryRequestBody(body, &wire_request); !st.ok()) {
    transport.SendProtocolError(conn, id, st);
    return;
  }
  QueryRequest request = std::move(wire_request.request);
  if (wire_request.by_reference) {
    auto session = catalog_->Acquire(request.series);
    if (!session.ok()) {
      transport.SendError(conn, id, session.status());
      return;
    }
    const size_t series_len = (*session)->series().size();
    const uint64_t offset = wire_request.ref_offset;
    const uint64_t length = wire_request.ref_length;
    if (length == 0 || offset > series_len ||
        length > series_len - offset) {
      transport.SendError(conn, id,
                          Status::InvalidArgument(
                              "query reference [" + std::to_string(offset) +
                              ", +" + std::to_string(length) +
                              ") is outside '" + request.series + "'"));
      return;
    }
    const auto span = (*session)->series().Subsequence(
        static_cast<size_t>(offset), static_cast<size_t>(length));
    request.query.assign(span.begin(), span.end());
  }

  // Deadline re-anchoring: the wire carries the REMAINING budget as of
  // the sender's send instant, so time spent on the wire and waiting in
  // this socket's buffer must be charged against it here — not silently
  // granted again. A budget that is already spent still submits:
  // QueryService answers DeadlineExceeded and records the counter,
  // keeping the accounting in one place.
  request.timeout_ms = RemainingBudgetMs(request.timeout_ms, received);

  // The client's trace wish is remembered separately: the slow-query log
  // needs traces for every query while enabled, but only clients that
  // asked for one get it echoed back on the wire.
  EventLog* slow_log =
      options_.slow_query_ms > 0.0 ? catalog_->event_log() : nullptr;
  const bool wants_trace = request.collect_trace;
  if (slow_log != nullptr) request.collect_trace = true;
  const std::string series_name = request.series;

  // Booked before submission, so a kCancel can never race ahead of its
  // target; the completion callback retires it.
  request.cancel = transport.BeginRequest(conn, id);
  if (request.cancel == nullptr) return;

  // Incremental streaming (ε-threshold queries with streaming enabled):
  // verified slices arrive through on_partial while later slices are
  // still running; every full chunk leaves the server immediately and
  // only the tail rides the completion path, so transfer overlaps
  // verification. The wire shape is byte-identical to the
  // whole-result-at-completion path: parts of exactly one chunk, a final
  // part of at most one chunk, and no parts at all when the result fits
  // in one chunk. Accesses to the buffer need no lock — the service
  // serializes on_partial calls and runs the completion callback
  // strictly after the last one.
  const size_t chunk = transport.stream_chunk();
  struct StreamState {
    std::vector<MatchResult> buffer;
    bool parts_sent = false;
  };
  std::shared_ptr<StreamState> stream;
  if (chunk > 0 && request.top_k == 0) {
    stream = std::make_shared<StreamState>();
    request.on_partial = [&transport, conn, id, chunk,
                          stream](std::span<const MatchResult> part) {
      auto& buf = stream->buffer;
      buf.insert(buf.end(), part.begin(), part.end());
      // Keep at least one match buffered: the last part must be the one
      // that may run short, exactly as the completion-time chunker does.
      if (buf.size() <= chunk) return;
      const size_t ready = (buf.size() - 1) / chunk * chunk;
      std::vector<std::string> wires;
      transport.AppendMatchParts(
          id, std::span<const MatchResult>(buf.data(), ready), &wires);
      for (auto& wire : wires) transport.EnqueueRaw(conn, std::move(wire));
      stream->parts_sent = true;
      buf.erase(buf.begin(), buf.begin() + ready);
    };
  }
  const double slow_query_ms = options_.slow_query_ms;
  service_->SubmitWithCallback(
      std::move(request),
      [&transport, conn, id, wants_trace, series_name, stream, slow_log,
       slow_query_ms](QueryResponse response) {
        // Encoded frames for this response, pushed onto the outbox as one
        // contiguous run (other requests' frames may interleave between
        // runs — the client reassembles per request id).
        std::vector<std::string> wires;
        if (stream != nullptr && response.status.ok()) {
          if (!stream->parts_sent) {
            // Nothing left early, so at most one chunk accumulated:
            // deliver it on the final frame like the classic path.
            if (response.matches.empty()) {
              response.matches = std::move(stream->buffer);
            }
          } else {
            // Parts are already on the wire; the buffered tail (≤ one
            // chunk) is the closing part.
            transport.AppendMatchParts(id, stream->buffer, &wires);
          }
        }
        // The trace/latency outlive the encode below (the run consumes
        // the response) for the slow-query event, which fires before the
        // request is retired, so it is in the log by the time the client
        // holds the answer.
        const auto trace = response.trace;
        const double latency_ms = response.latency_ms;
        const std::string status_text =
            response.status.ok() ? "ok" : response.status.ToString();
        for (auto& w :
             transport.EncodeResponseRun(id, std::move(response),
                                         wants_trace)) {
          wires.push_back(std::move(w));
        }
        if (slow_log != nullptr && trace != nullptr &&
            latency_ms >= slow_query_ms) {
          // latency_ms keeps millisecond resolution (%.3f) rather than
          // FNum's six significant digits, so large values never turn
          // into exponent form.
          char latency[32];
          std::snprintf(latency, sizeof(latency), "%.3f", latency_ms);
          slow_log->Emit(Event{kEventSlowQuery, series_name}
                             .Str("status", status_text)
                             .Json("latency_ms", latency)
                             .Json("spans", TraceSpansJson(*trace)));
        }
        transport.CompleteRequest(conn, id, std::move(wires));
      });
}

}  // namespace net
}  // namespace kvmatch
