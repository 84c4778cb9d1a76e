#include "coord/coordinator.h"

#include <algorithm>
#include <map>
#include <utility>

#include "match/top_k.h"
#include "service/trace.h"

namespace kvmatch {
namespace coord {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Coordinator::Coordinator(ShardMap map, Options options)
    : map_(std::move(map)), options_(options) {
  shards_.reserve(map_.num_shards());
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    ShardClient::Options client_options = options_.client;
    client_options.expect_shard_id = s;
    if (!options_.verify_shard_identity) {
      client_options.expect_fingerprint = 0;  // disables the check
    } else if (client_options.expect_fingerprint == 0) {
      client_options.expect_fingerprint = map_.Fingerprint();
    }
    shards_.push_back(
        std::make_unique<ShardClient>(map_.endpoint(s), client_options));
  }
}

QueryResponse Coordinator::ExecuteExact(
    const net::WireQueryRequest& request,
    const std::shared_ptr<CancelToken>& cancel) {
  const uint32_t owner = map_.OwnerOf(request.request.series);
  auto call = shards_[owner]->Dispatch(std::span(&request, 1),
                                       request.request.timeout_ms);
  QueryResponse response;
  ShardClient::Collect(
      std::span(&call, 1), cancel,
      [&response](size_t, Result<std::vector<QueryResponse>> answers) {
        if (answers.ok()) {
          response = std::move(answers->front());
        } else {
          response.status = answers.status();
        }
      });
  return response;
}

net::FederatedResponse Coordinator::ExecutePattern(
    const net::WireQueryRequest& request,
    const std::shared_ptr<CancelToken>& cancel) {
  const auto t0 = std::chrono::steady_clock::now();
  net::FederatedResponse fed;
  fed.shards_total = static_cast<uint32_t>(map_.num_shards());
  if (request.by_reference) {
    fed.status = Status::InvalidArgument(
        "pattern queries require literal query values: a by-reference "
        "query has no single owner shard to resolve the reference");
    fed.latency_ms = MsBetween(t0, std::chrono::steady_clock::now());
    return fed;
  }
  std::shared_ptr<QueryTrace> trace;
  if (request.request.collect_trace) {
    trace = std::make_shared<QueryTrace>(t0);
  }

  struct ShardOutcome {
    Status status = Status::OK();
    std::vector<std::string> names;  // the shard's batch, in order
    std::vector<net::FederatedSeriesMatches> groups;
    MatchStats stats;
    std::chrono::steady_clock::time_point end{};
  };
  std::vector<ShardOutcome> outcomes(map_.num_shards());

  // Plan each shard against its own directory, then send its batch. Every
  // batch is sent before any is collected.
  auto listings = ListEach();
  std::vector<Result<ShardClient::Call>> calls;
  calls.reserve(map_.num_shards());
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    ShardOutcome& out = outcomes[s];
    if (!listings[s].ok()) {
      calls.push_back(listings[s].status());
      continue;
    }
    // Only series this shard owns under the current map: a leftover
    // replica from a reshard must not produce the same series from two
    // shards.
    for (const auto& info : *listings[s]) {
      if (GlobMatch(request.request.series, info.name) &&
          map_.OwnerOf(info.name) == s) {
        out.names.push_back(info.name);
      }
    }
    std::sort(out.names.begin(), out.names.end());
    // The budget that is left after planning is what the shard gets.
    const double remaining =
        net::RemainingBudgetMs(request.request.timeout_ms, t0);
    if (!out.names.empty() && request.request.timeout_ms > 0.0 &&
        remaining <= 0.0) {
      calls.push_back(Status::DeadlineExceeded(
          "deadline spent before shard " + std::to_string(s) +
          " was queried"));
      continue;
    }
    std::vector<net::WireQueryRequest> batch;
    batch.reserve(out.names.size());
    for (const auto& name : out.names) {
      net::WireQueryRequest sub = request;
      sub.by_reference = false;
      sub.request.series = name;
      sub.request.timeout_ms = remaining;
      batch.push_back(std::move(sub));
    }
    calls.push_back(shards_[s]->Dispatch(batch, remaining));
  }

  ShardClient::Collect(
      calls, cancel, [&](size_t s, Result<std::vector<QueryResponse>> answers) {
        ShardOutcome& out = outcomes[s];
        out.end = std::chrono::steady_clock::now();
        if (!answers.ok()) {
          out.status = answers.status();
          return;
        }
        for (size_t i = 0; i < answers->size(); ++i) {
          QueryResponse& answer = (*answers)[i];
          out.stats.Add(answer.stats);
          if (trace != nullptr && answer.trace != nullptr) {
            // Shard spans land on the coordinator timeline counted from
            // the fan-out's start, t0, and namespaced per shard.
            for (TraceSpan span : answer.trace->spans()) {
              span.name = "shard" + std::to_string(s) + "/" + out.names[i] +
                          "/" + span.name;
              trace->AddSpanAt(std::move(span));
            }
          }
          if (!answer.status.ok()) {
            // One failed sub-query (cancelled, deadline, shard-side error)
            // degrades this shard to partial; the successful groups are
            // still delivered.
            if (out.status.ok()) out.status = answer.status;
            continue;
          }
          out.groups.push_back(net::FederatedSeriesMatches{
              out.names[i], std::move(answer.matches)});
        }
      });

  const auto merge_t0 = std::chrono::steady_clock::now();
  std::vector<net::FederatedSeriesMatches> groups;
  for (uint32_t s = 0; s < outcomes.size(); ++s) {
    ShardOutcome& out = outcomes[s];
    if (out.status.ok()) {
      fed.shards_ok += 1;
    } else {
      fed.shard_errors.emplace_back(s, out.status);
    }
    for (auto& g : out.groups) groups.push_back(std::move(g));
    fed.stats.Add(out.stats);
    if (trace != nullptr) {
      TraceSpan span;
      span.name = "shard" + std::to_string(s);
      span.dur_ms = MsBetween(t0, out.end);
      span.worker = s;
      trace->AddSpanAt(std::move(span));
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const net::FederatedSeriesMatches& a,
               const net::FederatedSeriesMatches& b) {
              return a.series < b.series;
            });
  if (request.request.top_k > 0 && !groups.empty()) {
    // Global top-k: every shard over-delivered its local best k; one
    // bounded heap under (distance, series, offset) picks the true
    // global winners, then the flat ranking folds back into per-series
    // groups (name-sorted; within a series the heap's output order is
    // already (distance, offset)).
    std::vector<std::vector<SeriesMatch>> sources;
    sources.reserve(groups.size());
    for (auto& g : groups) {
      std::vector<SeriesMatch> src;
      src.reserve(g.matches.size());
      for (const MatchResult& m : g.matches) {
        src.push_back(SeriesMatch{g.series, m});
      }
      sources.push_back(std::move(src));
    }
    std::map<std::string, std::vector<MatchResult>> regrouped;
    for (SeriesMatch& winner :
         MergeTopK(std::move(sources), request.request.top_k)) {
      regrouped[winner.series].push_back(winner.match);
    }
    groups.clear();
    for (auto& [series, matches] : regrouped) {
      groups.push_back(
          net::FederatedSeriesMatches{series, std::move(matches)});
    }
  }
  fed.groups = std::move(groups);
  if (fed.shards_ok == 0 && !fed.shard_errors.empty()) {
    fed.status = fed.shard_errors.front().second;
  }
  const auto done = std::chrono::steady_clock::now();
  if (trace != nullptr) {
    trace->AddSpan("merge", merge_t0, done);
    fed.trace = trace;
  }
  fed.latency_ms = MsBetween(t0, done);
  return fed;
}

std::vector<Result<std::vector<net::SeriesInfo>>> Coordinator::ListEach() {
  std::vector<Result<ShardClient::Call>> sent;
  for (auto& shard : shards_) sent.push_back(shard->SendList());
  std::vector<Result<std::vector<net::SeriesInfo>>> listings;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    listings.push_back(shards_[s]->WaitList(std::move(sent[s])));
  }
  return listings;
}

Result<std::vector<net::SeriesInfo>> Coordinator::ListAll() {
  auto listings = ListEach();
  // pair.first: whether the kept copy came from its owner shard.
  std::map<std::string, std::pair<bool, net::SeriesInfo>> best;
  Status first_error = Status::OK();
  size_t reachable = 0;
  for (uint32_t s = 0; s < map_.num_shards(); ++s) {
    auto& listing = listings[s];
    if (!listing.ok()) {
      if (first_error.ok()) first_error = listing.status();
      continue;
    }
    ++reachable;
    for (auto& info : *listing) {
      const bool from_owner = map_.OwnerOf(info.name) == s;
      auto it = best.find(info.name);
      if (it == best.end()) {
        // Copy the key before moving the value: the moved-from name must
        // not be what the map is keyed on.
        std::string key = info.name;
        best.emplace(std::move(key),
                     std::make_pair(from_owner, std::move(info)));
      } else if (from_owner && !it->second.first) {
        it->second = {from_owner, std::move(info)};
      }
    }
  }
  if (reachable == 0 && !first_error.ok()) return first_error;
  std::vector<net::SeriesInfo> out;
  out.reserve(best.size());
  for (auto& [name, kept] : best) out.push_back(std::move(kept.second));
  return out;
}

Result<net::IngestAck> Coordinator::Ingest(
    net::FrameType type, const net::WireIngestRequest& request) {
  return shards_[map_.OwnerOf(request.series)]->Ingest(type, request);
}

}  // namespace coord
}  // namespace kvmatch
