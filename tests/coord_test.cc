// Tests for the scatter-gather query federation layer: shard map
// routing/fingerprinting, the cross-shard top-k merge order, and a
// 3-shard in-process cluster whose federated answers must equal (byte
// for byte, order included) a single node holding every series. The
// failure-path tests run against shards that were never started or are
// killed mid-test — a dead shard must become a *typed* partial result,
// never a hang.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "coord/coord_server.h"
#include "coord/coordinator.h"
#include "coord/shard_client.h"
#include "coord/shard_map.h"
#include "match/top_k.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"
#include "ts/generator.h"

namespace kvmatch {
namespace coord {
namespace {

// Teardown-time bounds are drain budget + one reactor tick. Sanitizer
// builds run several times slower, so there the bound gets a wider
// margin; Release keeps the tight one.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KVMATCH_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KVMATCH_TEST_SANITIZED 1
#endif
#endif
#ifdef KVMATCH_TEST_SANITIZED
constexpr double kTeardownSlackMs = 2000.0;
#else
constexpr double kTeardownSlackMs = 0.0;
#endif

// ------------------------------------------------------------- shard map

TEST(ShardMapTest, ParseSerializeRoundTrip) {
  auto map = ShardMap::Parse(
      "# three-node cluster\n"
      "shard 1 node-b 7101\n"
      "\n"
      "shard 0 node-a 7100\n"
      "shard 2 node-c 7102\n");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(map->num_shards(), 3u);
  EXPECT_EQ(map->endpoint(0).host, "node-a");
  EXPECT_EQ(map->endpoint(1).port, 7101);
  EXPECT_EQ(map->endpoint(2).host, "node-c");

  // The canonical serialization reparses to the same map — and therefore
  // the same fingerprint, which is what cluster members compare.
  const std::string canonical = map->Serialize();
  auto reparsed = ShardMap::Parse(canonical);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Serialize(), canonical);
  EXPECT_EQ(reparsed->Fingerprint(), map->Fingerprint());
  EXPECT_NE(map->Fingerprint(), 0u);
}

TEST(ShardMapTest, RejectsMalformedTopologies) {
  EXPECT_FALSE(ShardMap::Parse("").ok());
  EXPECT_FALSE(ShardMap::Parse("shard 0 a 1\nshard 0 b 2\n").ok());
  EXPECT_FALSE(ShardMap::Parse("shard 0 a 1\nshard 2 b 2\n").ok());
  EXPECT_FALSE(ShardMap::Parse("shard x a 1\n").ok());
  EXPECT_FALSE(ShardMap::Parse("bogus 0 a 1\n").ok());
  EXPECT_FALSE(ShardMap::FromEndpoints({}).ok());
}

TEST(ShardMapTest, OwnerIsThePinnedHashOfTheName) {
  auto map = ShardMap::FromEndpoints(
      {{"a", 1}, {"b", 2}, {"c", 3}});
  ASSERT_TRUE(map.ok());
  std::vector<bool> seen(3, false);
  for (int i = 0; i < 64; ++i) {
    const std::string name = "series-" + std::to_string(i);
    const uint32_t owner = map->OwnerOf(name);
    EXPECT_EQ(owner, static_cast<uint32_t>(Fnv1a64(name) % 3));
    ASSERT_LT(owner, 3u);
    seen[owner] = true;
  }
  // FNV spreads: 64 names must touch every shard.
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(ShardMapTest, FingerprintTracksTopology) {
  auto a = ShardMap::Parse("shard 0 host 7100\nshard 1 host 7101\n");
  auto b = ShardMap::Parse("shard 0 host 7100\nshard 1 host 7102\n");
  auto c = ShardMap::Parse("shard 0 host 7100\n");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
  EXPECT_NE(a->Fingerprint(), c->Fingerprint());
}

TEST(GlobMatchTest, MatchesShellStylePatterns) {
  EXPECT_TRUE(GlobMatch("abc", "abc"));
  EXPECT_FALSE(GlobMatch("abc", "abd"));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "a"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("a*", "abc"));
  EXPECT_TRUE(GlobMatch("*c", "abc"));
  EXPECT_TRUE(GlobMatch("a*b*c", "axxbyyc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "axxbyy"));
  EXPECT_TRUE(GlobMatch("**a*", "baa"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "abbc"));
  EXPECT_TRUE(GlobMatch("s*-??", "sensor-07"));
  EXPECT_FALSE(GlobMatch("s*-??", "sensor-7"));
  EXPECT_TRUE(IsGlobPattern("f*"));
  EXPECT_TRUE(IsGlobPattern("f?"));
  EXPECT_FALSE(IsGlobPattern("f7"));
}

// --------------------------------------------------------- top-k merge

TEST(MergeTopKTest, EqualDistancesOrderBySeriesThenOffset) {
  // Three sources with a duplicate distance (1.0) spread across series:
  // the (distance, series, offset) total order must break the tie the
  // same way regardless of source order.
  const std::vector<std::vector<SeriesMatch>> sources = {
      {{"b", {10, 1.0}}, {"b", {30, 1.0}}},
      {{"a", {20, 1.0}}, {"a", {5, 2.0}}},
      {{"c", {1, 0.5}}},
  };
  const std::vector<SeriesMatch> expected = {
      {"c", {1, 0.5}},
      {"a", {20, 1.0}},
      {"b", {10, 1.0}},
      {"b", {30, 1.0}},
  };
  EXPECT_EQ(MergeTopK(sources, 4), expected);

  std::vector<std::vector<SeriesMatch>> reversed(sources.rbegin(),
                                                 sources.rend());
  EXPECT_EQ(MergeTopK(reversed, 4), expected);

  // The heap is bounded: k=2 keeps only the global best two.
  const auto top2 = MergeTopK(sources, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], expected[0]);
  EXPECT_EQ(top2[1], expected[1]);

  EXPECT_TRUE(MergeTopK({}, 3).empty());
  EXPECT_TRUE(MergeTopK(sources, 0).empty());
}

// ------------------------------------------------------ deadline budget

TEST(RemainingBudgetMsTest, SubtractsElapsedAtEachHop) {
  const auto now = std::chrono::steady_clock::now();
  // "No deadline" and "already expired" markers pass through untouched.
  EXPECT_EQ(net::RemainingBudgetMs(0.0, now), 0.0);
  EXPECT_EQ(net::RemainingBudgetMs(-3.0, now), -3.0);
  // A live budget shrinks by the time spent at this hop.
  const auto received = now - std::chrono::milliseconds(100);
  const double remaining = net::RemainingBudgetMs(250.0, received);
  EXPECT_GT(remaining, 0.0);
  EXPECT_LE(remaining, 150.0);
  // A budget the hop outspent goes negative — expired, not unlimited.
  EXPECT_LT(net::RemainingBudgetMs(50.0, received), 0.0);
}

// -------------------------------------------------- in-process cluster

constexpr size_t kClusterShards = 3;
constexpr size_t kClusterSeries = 9;  // "f0".."f8": 3 owned by each shard
constexpr size_t kClusterLen = 2048;

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

/// One self-contained shard: its own store, catalog, service and wire
/// server on an ephemeral loopback port.
struct ShardNode {
  MemKvStore store;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::Server> server;
};

std::unique_ptr<ShardNode> StartShardNode(
    uint32_t shard_id, uint32_t num_shards,
    const std::shared_ptr<ShardMap>& map, size_t threads = 4,
    bool parallel_verify = true) {
  Catalog::Options copts;
  copts.session = SmallOptions();
  auto node = std::make_unique<ShardNode>();
  node->catalog = std::make_unique<Catalog>(&node->store, copts);
  node->service = std::make_unique<QueryService>(
      node->catalog.get(),
      QueryService::Options{.num_threads = threads,
                            .max_queue = 1024,
                            .parallel_verify = parallel_verify});
  node->catalog->SetStatsRegistry(node->service->stats_registry());
  net::Server::Options sopts;
  sopts.port = 0;
  sopts.shard_id = shard_id;
  sopts.num_shards = num_shards;
  // Ownership fence. The map is filled in only after every shard has an
  // ephemeral port, so an empty map means "fence not armed yet".
  sopts.owns_series = [map, shard_id](const std::string& name) {
    return map->num_shards() == 0 || map->OwnerOf(name) == shard_id;
  };
  node->server = std::make_unique<net::Server>(node->catalog.get(),
                                               node->service.get(), sopts);
  Status st = node->server->Start();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return node;
}

/// A 3-shard cluster with the catalog hash-partitioned across it, plus a
/// single node holding EVERY series — the ground truth a federated
/// answer must reproduce exactly.
struct ClusterFixture {
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::shared_ptr<ShardMap> map = std::make_shared<ShardMap>();

  MemKvStore all_store;
  std::unique_ptr<Catalog> all_catalog;
  std::unique_ptr<QueryService> all_service;
  std::unique_ptr<net::Server> all_server;

  std::vector<std::string> names;
  std::vector<TimeSeries> refs;

  ClusterFixture() {
    for (uint32_t s = 0; s < kClusterShards; ++s) {
      nodes.push_back(StartShardNode(s, kClusterShards, map));
    }
    std::vector<ShardEndpoint> endpoints;
    for (auto& node : nodes) {
      endpoints.push_back(ShardEndpoint{"127.0.0.1", node->server->port()});
    }
    auto built = ShardMap::FromEndpoints(std::move(endpoints));
    EXPECT_TRUE(built.ok());
    *map = *built;  // arms the ownership fences

    Catalog::Options copts;
    copts.session = SmallOptions();
    all_catalog = std::make_unique<Catalog>(&all_store, copts);
    all_service = std::make_unique<QueryService>(
        all_catalog.get(),
        QueryService::Options{.num_threads = 4, .max_queue = 1024});
    net::Server::Options aopts;
    aopts.port = 0;
    all_server = std::make_unique<net::Server>(all_catalog.get(),
                                               all_service.get(), aopts);
    Status st = all_server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();

    std::vector<bool> owns(kClusterShards, false);
    for (size_t i = 0; i < kClusterSeries; ++i) {
      names.push_back("f" + std::to_string(i));
      Rng rng(7000 + i);
      TimeSeries x = GenerateSynthetic(kClusterLen, &rng);
      refs.push_back(x);
      const uint32_t owner = map->OwnerOf(names[i]);
      owns[owner] = true;
      TimeSeries copy = x;
      EXPECT_TRUE(
          nodes[owner]->catalog->Ingest(names[i], std::move(copy)).ok());
      EXPECT_TRUE(all_catalog->Ingest(names[i], std::move(x)).ok());
    }
    // The comparisons below only exercise federation if no shard is idle.
    for (size_t s = 0; s < kClusterShards; ++s) {
      EXPECT_TRUE(owns[s]) << "shard " << s << " owns no series";
    }
  }

  Coordinator::Options CoordinatorOptions() const {
    Coordinator::Options options;
    // Ephemeral ports: the shards started before the map existed, so
    // their identity cannot carry its fingerprint.
    options.verify_shard_identity = false;
    return options;
  }

  CoordServer::CoordOptions CoordServerOptions() const {
    CoordServer::CoordOptions options;
    options.server.port = 0;
    options.coord = CoordinatorOptions();
    return options;
  }
};

/// Exact-series request i of a workload covering all five query types,
/// threshold and top-k.
QueryRequest MakeRequest(const ClusterFixture& fx, size_t i) {
  const QueryType kTypes[] = {QueryType::kRsmEd, QueryType::kRsmDtw,
                              QueryType::kCnsmEd, QueryType::kCnsmDtw,
                              QueryType::kRsmL1};
  Rng rng(90 + i);
  const size_t series = i % fx.names.size();
  QueryRequest req;
  req.series = fx.names[series];
  const size_t qlen = 100 + 25 * (i % 3);
  const size_t qoff = (173 * i) % (kClusterLen - qlen);
  req.query = ExtractQuery(fx.refs[series], qoff, qlen, 0.1, &rng);
  req.params.type = kTypes[i % 5];
  req.params.epsilon = 2.0 + static_cast<double>(i % 3);
  req.params.alpha = 1.5;
  req.params.beta = 3.0;
  req.params.rho = 5;
  if (i % 4 == 3) req.top_k = 4;
  return req;
}

std::vector<MatchResult> SerialQuery(Catalog* catalog,
                                     const QueryRequest& req) {
  auto session = catalog->Acquire(req.series);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  auto matches = req.top_k > 0
                     ? (*session)->QueryTopK(req.query, req.params,
                                             req.top_k, req.topk_options)
                     : (*session)->Query(req.query, req.params);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  return std::move(matches).value();
}

TEST(CoordFederationTest, ExactSeriesAnswersByteIdenticalToSingleNode) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());

  auto fed = net::Client::Connect("127.0.0.1", coordinator.port());
  auto single = net::Client::Connect("127.0.0.1", fx.all_server->port());
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  // A coordinator identifies itself as such on the wire.
  auto info = (*fed)->GetShardInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->shard_id, net::kCoordinatorShardId);
  EXPECT_EQ(info->num_shards, kClusterShards);
  EXPECT_EQ(info->map_fingerprint, fx.map->Fingerprint());

  for (size_t i = 0; i < 20; ++i) {
    const QueryRequest req = MakeRequest(fx, i);
    auto a = (*fed)->Query(req);
    auto b = (*single)->Query(req);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(a->status.ok()) << a->status.ToString();
    ASSERT_TRUE(b->status.ok()) << b->status.ToString();
    // Matches identical INCLUDING order, and the deterministic stats
    // counters agree — the shard did the same work the single node did.
    EXPECT_EQ(a->matches, b->matches) << "request " << i;
    EXPECT_EQ(a->stats.candidate_positions, b->stats.candidate_positions);
    EXPECT_EQ(a->stats.distance_calls, b->stats.distance_calls);
    // Byte identity once the run-dependent timing is normalized.
    QueryResponse na = *a;
    QueryResponse nb = *b;
    na.latency_ms = nb.latency_ms = 0.0;
    na.stats = nb.stats = MatchStats();
    std::string wire_a, wire_b;
    net::EncodeQueryResponseBody(na, &wire_a);
    net::EncodeQueryResponseBody(nb, &wire_b);
    EXPECT_EQ(wire_a, wire_b) << "request " << i;
  }
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternThresholdMergesEveryShardInNameOrder) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(31);
  net::WireQueryRequest wire;
  wire.request.series = "f*";
  wire.request.query = ExtractQuery(fx.refs[2], 300, 128, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;

  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok()) << fed->status.ToString();
  EXPECT_EQ(fed->shards_total, kClusterShards);
  EXPECT_EQ(fed->shards_ok, kClusterShards);
  EXPECT_FALSE(fed->partial());
  EXPECT_TRUE(fed->shard_errors.empty());

  // Every series answers, groups sorted by name, each group identical
  // (order included) to the single node's per-series result.
  ASSERT_EQ(fed->groups.size(), fx.names.size());
  for (size_t i = 0; i < fed->groups.size(); ++i) {
    EXPECT_EQ(fed->groups[i].series, fx.names[i]);
    if (i > 0) EXPECT_LT(fed->groups[i - 1].series, fed->groups[i].series);
    QueryRequest per = wire.request;
    per.series = fed->groups[i].series;
    EXPECT_EQ(fed->groups[i].matches, SerialQuery(fx.all_catalog.get(), per))
        << fed->groups[i].series;
  }
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternTopKIsTheGlobalBoundedHeapOrder) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(47);
  net::WireQueryRequest wire;
  wire.request.series = "f?";
  wire.request.query = ExtractQuery(fx.refs[4], 512, 150, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.top_k = 5;

  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok()) << fed->status.ToString();
  EXPECT_FALSE(fed->partial());

  // Expected: each series' local top-k from the single node, merged
  // through the same (distance, series, offset) bounded heap.
  std::vector<std::vector<SeriesMatch>> sources;
  for (const auto& name : fx.names) {
    QueryRequest per = wire.request;
    per.series = name;
    std::vector<SeriesMatch> tagged;
    for (const MatchResult& m : SerialQuery(fx.all_catalog.get(), per)) {
      tagged.push_back(SeriesMatch{name, m});
    }
    sources.push_back(std::move(tagged));
  }
  std::map<std::string, std::vector<MatchResult>> regrouped;
  for (SeriesMatch& winner : MergeTopK(std::move(sources), 5)) {
    regrouped[winner.series].push_back(winner.match);
  }

  size_t total = 0;
  ASSERT_EQ(fed->groups.size(), regrouped.size());
  size_t i = 0;
  for (const auto& [series, matches] : regrouped) {
    EXPECT_EQ(fed->groups[i].series, series);
    EXPECT_EQ(fed->groups[i].matches, matches) << series;
    total += fed->groups[i].matches.size();
    ++i;
  }
  EXPECT_EQ(total, 5u);
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternRejectsByReferenceQueries) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  net::WireQueryRequest wire;
  wire.request.series = "f*";
  wire.by_reference = true;
  wire.ref_offset = 0;
  wire.ref_length = 128;
  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  EXPECT_TRUE(fed->status.IsInvalidArgument()) << fed->status.ToString();
  // One rule, one wire form: the rejection is a kFederatedResponse, which
  // names the cluster's shards, not a bare kError frame.
  EXPECT_EQ(fed->shards_total, kClusterShards);
  EXPECT_TRUE(fed->groups.empty());

  // The connection survives the rejection.
  EXPECT_TRUE((*client)->Ping().ok());
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternTraceAggregatesShardSpans) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(13);
  net::WireQueryRequest wire;
  wire.request.series = "f*";
  wire.request.query = ExtractQuery(fx.refs[0], 100, 128, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 2.0;
  wire.request.collect_trace = true;

  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok()) << fed->status.ToString();
  ASSERT_NE(fed->trace, nullptr);

  // One round-trip span per shard, the coordinator's merge span, and the
  // shards' own stage spans re-based and namespaced under shardN/series.
  std::vector<bool> shard_span(kClusterShards, false);
  bool merge_span = false;
  bool namespaced = false;
  for (const TraceSpan& span : fed->trace->spans()) {
    for (size_t s = 0; s < kClusterShards; ++s) {
      if (span.name == "shard" + std::to_string(s)) shard_span[s] = true;
    }
    if (span.name == "merge") merge_span = true;
    if (span.name.find("/f") != std::string::npos) namespaced = true;
    EXPECT_GE(span.start_ms, 0.0) << span.name;
  }
  for (size_t s = 0; s < kClusterShards; ++s) {
    EXPECT_TRUE(shard_span[s]) << "missing span for shard " << s;
  }
  EXPECT_TRUE(merge_span);
  EXPECT_TRUE(namespaced);
  coordinator.Stop();
}

TEST(CoordFederationTest, ExpiredDeadlineAnswersTypedDeadlineExceeded) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  // A microsecond budget is spent before the shard can dequeue: the
  // re-anchored (negative) remaining budget must arrive at the shard as
  // "expired", not be mistaken for "no deadline".
  QueryRequest req = MakeRequest(fx, 0);
  req.top_k = 0;
  req.timeout_ms = 0.0001;
  auto response = (*client)->Query(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsDeadlineExceeded())
      << response->status.ToString();

  // The connection and the cluster survive; an unbounded retry works.
  req.timeout_ms = 0.0;
  auto retry = (*client)->Query(req);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->status.ok()) << retry->status.ToString();
  coordinator.Stop();
}

TEST(CoordFederationTest, IngestRoutesToOwnerAndFenceRejectsMisrouted) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(555);
  const TimeSeries fresh = GenerateSynthetic(600, &rng);
  auto ack = (*client)->CreateSeries("routed", fresh.values());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();

  // The series landed on its owner shard and nowhere else.
  const uint32_t owner = fx.map->OwnerOf("routed");
  for (uint32_t s = 0; s < kClusterShards; ++s) {
    auto direct =
        net::Client::Connect("127.0.0.1", fx.nodes[s]->server->port());
    ASSERT_TRUE(direct.ok());
    auto listing = (*direct)->ListSeries();
    ASSERT_TRUE(listing.ok());
    const bool found =
        std::any_of(listing->begin(), listing->end(),
                    [](const net::SeriesInfo& info) {
                      return info.name == "routed";
                    });
    EXPECT_EQ(found, s == owner) << "shard " << s;

    // A misrouted write straight to a non-owner shard hits the fence.
    if (s != owner) {
      auto misrouted = (*direct)->CreateSeries("routed", fresh.values());
      EXPECT_FALSE(misrouted.ok());
    }
  }

  // Appends and drops route the same way.
  auto extended = (*client)->AppendSeries("routed", fresh.values());
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  EXPECT_EQ(extended->length, 2 * fresh.values().size());
  ASSERT_TRUE((*client)->DropSeries("routed").ok());

  // LIST through the coordinator is the union of every shard.
  auto listing = (*client)->ListSeries();
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), fx.names.size());
  for (size_t i = 0; i < fx.names.size(); ++i) {
    EXPECT_EQ((*listing)[i].name, fx.names[i]);
  }
  coordinator.Stop();
}

TEST(CoordFederationTest, ReshardLeftoverIsDeduplicatedByOwnership) {
  ClusterFixture fx;
  // A stale replica of f0 (shorter, so answers would differ) left on a
  // non-owner shard, as after an interrupted reshard.
  const uint32_t owner = fx.map->OwnerOf("f0");
  const uint32_t other = (owner + 1) % kClusterShards;
  Rng rng(8100);
  ASSERT_TRUE(fx.nodes[other]
                  ->catalog->Ingest("f0", GenerateSynthetic(700, &rng))
                  .ok());

  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  // LIST keeps one entry — the owner's copy (full length).
  auto listing = (*client)->ListSeries();
  ASSERT_TRUE(listing.ok());
  size_t seen = 0;
  for (const auto& info : *listing) {
    if (info.name == "f0") {
      ++seen;
      EXPECT_EQ(info.length, kClusterLen);
    }
  }
  EXPECT_EQ(seen, 1u);

  // A pattern query produces ONE group for f0, computed on the owner.
  Rng qrng(8101);
  net::WireQueryRequest wire;
  wire.request.series = "f0*";
  wire.request.query = ExtractQuery(fx.refs[0], 200, 128, 0.1, &qrng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;
  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok());
  ASSERT_EQ(fed->groups.size(), 1u);
  EXPECT_EQ(fed->groups[0].series, "f0");
  QueryRequest per = wire.request;
  per.series = "f0";
  EXPECT_EQ(fed->groups[0].matches, SerialQuery(fx.all_catalog.get(), per));
  coordinator.Stop();
}

// ------------------------------------------------------- failure paths

/// A loopback port with no listener behind it (bound, inspected, closed).
int ReserveClosedPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(CoordFederationTest, DeadShardYieldsTypedPartialResults) {
  // Shards 0 and 1 live; shard 2's endpoint was never started. Series
  // hashing to shard 2 ("g3", "g4", "g8") are simply down.
  auto map = std::make_shared<ShardMap>();
  std::vector<std::unique_ptr<ShardNode>> nodes;
  nodes.push_back(StartShardNode(0, 3, map));
  nodes.push_back(StartShardNode(1, 3, map));
  auto built = ShardMap::FromEndpoints(
      {ShardEndpoint{"127.0.0.1", nodes[0]->server->port()},
       ShardEndpoint{"127.0.0.1", nodes[1]->server->port()},
       ShardEndpoint{"127.0.0.1", ReserveClosedPort()}});
  ASSERT_TRUE(built.ok());
  *map = *built;

  std::vector<std::string> live_names;
  std::string dead_name;
  TimeSeries source;
  for (size_t i = 0; i < 9; ++i) {
    const std::string name = "g" + std::to_string(i);
    const uint32_t owner = map->OwnerOf(name);
    if (owner >= 2) {
      dead_name = name;
      continue;
    }
    Rng rng(6200 + i);
    TimeSeries x = GenerateSynthetic(1024, &rng);
    if (source.empty()) source = x;
    ASSERT_TRUE(nodes[owner]->catalog->Ingest(name, std::move(x)).ok());
    live_names.push_back(name);
  }
  ASSERT_FALSE(dead_name.empty());
  ASSERT_FALSE(live_names.empty());
  std::sort(live_names.begin(), live_names.end());

  Coordinator::Options options;
  options.verify_shard_identity = false;
  options.client.call_timeout_ms = 2'000.0;
  Coordinator coord(*map, options);

  // Pattern: the live shards answer in full, the dead shard is a typed
  // per-shard error — partial, not failed, and never a hang.
  Rng qrng(6300);
  net::WireQueryRequest wire;
  wire.request.series = "g*";
  wire.request.query = ExtractQuery(source, 100, 128, 0.1, &qrng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;
  net::FederatedResponse fed = coord.ExecutePattern(wire, nullptr);
  EXPECT_TRUE(fed.status.ok()) << fed.status.ToString();
  EXPECT_EQ(fed.shards_total, 3u);
  EXPECT_EQ(fed.shards_ok, 2u);
  EXPECT_TRUE(fed.partial());
  ASSERT_EQ(fed.shard_errors.size(), 1u);
  EXPECT_EQ(fed.shard_errors[0].first, 2u);
  EXPECT_FALSE(fed.shard_errors[0].second.ok());
  ASSERT_EQ(fed.groups.size(), live_names.size());
  for (size_t i = 0; i < live_names.size(); ++i) {
    EXPECT_EQ(fed.groups[i].series, live_names[i]);
  }

  // Exact routing to the dead shard: typed error, fast.
  net::WireQueryRequest exact = wire;
  exact.request.series = dead_name;
  const QueryResponse direct = coord.ExecuteExact(exact, nullptr);
  EXPECT_FALSE(direct.status.ok());
}

TEST(CoordFederationTest, KilledShardBecomesTypedErrorWithDialBackoff) {
  ClusterFixture fx;
  Coordinator::Options options = fx.CoordinatorOptions();
  options.client.call_timeout_ms = 2'000.0;
  options.client.backoff_initial_ms = 200.0;
  Coordinator coord(*fx.map, options);

  // f3 hashes to shard 0, f1 to shard 1 (pinned by Fnv1a64).
  ASSERT_EQ(fx.map->OwnerOf("f3"), 0u);
  ASSERT_EQ(fx.map->OwnerOf("f1"), 1u);

  Rng rng(911);
  net::WireQueryRequest wire;
  wire.request.series = "f3";
  wire.request.query = ExtractQuery(fx.refs[3], 50, 128, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;
  EXPECT_TRUE(coord.ExecuteExact(wire, nullptr).status.ok());
  EXPECT_TRUE(coord.shard(0)->connected());

  // Kill shard 0 under an established connection.
  fx.nodes[0]->server->Stop();
  const QueryResponse after = coord.ExecuteExact(wire, nullptr);
  EXPECT_FALSE(after.status.ok());
  EXPECT_FALSE(coord.shard(0)->connected());

  // Redial fails (nobody listens), arming the backoff; the next attempt
  // inside the window fails FAST with the typed backoff status.
  EXPECT_FALSE(coord.ExecuteExact(wire, nullptr).status.ok());
  const QueryResponse backed_off = coord.ExecuteExact(wire, nullptr);
  EXPECT_TRUE(backed_off.status.IsResourceExhausted())
      << backed_off.status.ToString();

  // The other shards are untouched.
  net::WireQueryRequest other = wire;
  other.request.series = "f1";
  Rng rng2(912);
  other.request.query = ExtractQuery(fx.refs[1], 50, 128, 0.1, &rng2);
  EXPECT_TRUE(coord.ExecuteExact(other, nullptr).status.ok());
}

/// A shard endpoint that accepts connections and never answers — not
/// even the coordinator's identity handshake.
class SilentShard {
 public:
  SilentShard() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
        0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentShard() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    ::close(listen_fd_);
  }
  int port() const { return port_; }
  /// Blocks until a client (the coordinator) has connected.
  void Accept() {
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    EXPECT_GE(conn_fd_, 0);
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  int port_ = 0;
};

TEST(CoordFederationTest, DestructorDrainsInFlightQueryWithoutExplicitStop) {
  // The coordinator goes out of scope, with no Stop() call, while its
  // federated query waits on a shard that never answers. Its transport
  // (declared after the federation handler) must drain that task — which
  // uses the coordinator, its pool and its registry — before any of them
  // is destroyed, and flush the typed error. The silent shard's wait is
  // bounded by the shard call timeout, here the drain budget, so the
  // teardown completes within the drain budget plus one reactor tick.
  constexpr double kDrainMs = 300.0;
  constexpr double kTickMs = 50.0;
  SilentShard shard;
  auto map =
      ShardMap::FromEndpoints({ShardEndpoint{"127.0.0.1", shard.port()}});
  ASSERT_TRUE(map.ok());
  CoordServer::CoordOptions options;
  options.server.port = 0;
  options.server.drain_timeout_ms = kDrainMs;
  options.coord.verify_shard_identity = false;
  options.coord.client.call_timeout_ms = kDrainMs;

  QueryRequest req;
  req.series = "silent";
  req.query.assign(64, 0.0);
  req.params.type = QueryType::kRsmEd;
  req.params.epsilon = 1.0;
  std::unique_ptr<net::Client> client;
  uint64_t id = 0;
  std::chrono::steady_clock::time_point t0;
  {
    CoordServer coordinator(*map, options);
    ASSERT_TRUE(coordinator.Start().ok());
    auto connected = net::Client::Connect("127.0.0.1", coordinator.port());
    ASSERT_TRUE(connected.ok());
    client = std::move(*connected);
    auto sent = client->SendRequest(req);
    ASSERT_TRUE(sent.ok());
    id = *sent;
    shard.Accept();  // the coordinator dialed: the query waits on the shard
    t0 = std::chrono::steady_clock::now();
  }
  const double teardown_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  EXPECT_LT(teardown_ms, kDrainMs + kTickMs + kTeardownSlackMs)
      << teardown_ms;
  auto response = client->WaitResponse(id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->status.ok());
}

TEST(CoordFederationTest, StatsAndPingAnswerWhileAShardCallWaits) {
  // STATS is answered on the transport's loop thread and reads every
  // shard's connected gauge. While a query waits on a shard that never
  // answers, neither STATS nor a PING on another connection may wait for
  // that shard call — one slow shard must not freeze every coordinator
  // connection for the call timeout.
  constexpr double kBoundMs = 250.0;
  SilentShard shard;
  auto map =
      ShardMap::FromEndpoints({ShardEndpoint{"127.0.0.1", shard.port()}});
  ASSERT_TRUE(map.ok());
  CoordServer::CoordOptions options;
  options.server.port = 0;
  options.coord.verify_shard_identity = false;
  options.coord.client.call_timeout_ms = 2'000.0;
  CoordServer coordinator(*map, options);
  ASSERT_TRUE(coordinator.Start().ok());

  auto querier = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(querier.ok());
  QueryRequest req;
  req.series = "silent";
  req.query.assign(64, 0.0);
  req.params.type = QueryType::kRsmEd;
  req.params.epsilon = 1.0;
  auto id = (*querier)->SendRequest(req);
  ASSERT_TRUE(id.ok());
  shard.Accept();  // the coordinator dialed: the query waits on the shard

  auto observer = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(observer.ok());
  auto t0 = std::chrono::steady_clock::now();
  auto stats = (*observer)->StatsText();
  const double stats_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LT(stats_ms, kBoundMs);
  EXPECT_NE(stats->find("kvmatch_coord_shard_connected{shard=\"0\"}"),
            std::string::npos);

  t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE((*observer)->Ping().ok());
  const double ping_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(ping_ms, kBoundMs);

  // The query itself still ends, typed, once the call timeout passes.
  auto response = (*querier)->WaitResponse(*id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->status.ok());
  coordinator.Stop();
}

TEST(ShardClientTest, RefusesShardWithWrongIdentity) {
  // A shard claiming (shard 1, fingerprint 0xABC).
  MemKvStore store;
  Catalog catalog(&store);
  QueryService service(&catalog,
                       QueryService::Options{.num_threads = 1,
                                             .max_queue = 16});
  net::Server::Options sopts;
  sopts.port = 0;
  sopts.shard_id = 1;
  sopts.num_shards = 2;
  sopts.shard_map_fingerprint = 0xABC;
  net::Server server(&catalog, &service, sopts);
  ASSERT_TRUE(server.Start().ok());
  const ShardEndpoint endpoint{"127.0.0.1", server.port()};

  ShardClient::Options wrong_map;
  wrong_map.expect_fingerprint = 0xDEF;
  wrong_map.expect_shard_id = 1;
  ShardClient refused(endpoint, wrong_map);
  Status st = refused.EnsureConnected();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(refused.connected());
  // The refusal armed the dial backoff: an immediate retry fails fast.
  st = refused.EnsureConnected();
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();

  ShardClient::Options wrong_id;
  wrong_id.expect_fingerprint = 0xABC;
  wrong_id.expect_shard_id = 0;
  ShardClient misplaced(endpoint, wrong_id);
  EXPECT_TRUE(misplaced.EnsureConnected().IsInvalidArgument());

  ShardClient::Options right;
  right.expect_fingerprint = 0xABC;
  right.expect_shard_id = 1;
  ShardClient accepted(endpoint, right);
  EXPECT_TRUE(accepted.EnsureConnected().ok());
  EXPECT_TRUE(accepted.connected());
  server.Stop();
}

// ---------------------------------------------------- cancel fan-out

TEST(CoordFederationTest, CancelFansKCancelToEveryShard) {
  // One never-finishing query per shard (loose cNSM-DTW bounds force the
  // full verify cascade over 60k points — minutes uncancelled), so the
  // cancel must be what ends each of them. heavy0/1/2 hash to shards
  // 1/2/0 respectively: every shard runs exactly one sub-query.
  auto map = std::make_shared<ShardMap>();
  std::vector<std::unique_ptr<ShardNode>> nodes;
  for (uint32_t s = 0; s < 3; ++s) {
    nodes.push_back(StartShardNode(s, 3, map, /*threads=*/2));
  }
  auto built = ShardMap::FromEndpoints(
      {ShardEndpoint{"127.0.0.1", nodes[0]->server->port()},
       ShardEndpoint{"127.0.0.1", nodes[1]->server->port()},
       ShardEndpoint{"127.0.0.1", nodes[2]->server->port()}});
  ASSERT_TRUE(built.ok());
  *map = *built;

  Rng rng(4242);
  const TimeSeries heavy = GenerateSynthetic(60'000, &rng);
  std::vector<bool> owns(3, false);
  for (int i = 0; i < 3; ++i) {
    const std::string name = "heavy" + std::to_string(i);
    const uint32_t owner = map->OwnerOf(name);
    owns[owner] = true;
    TimeSeries copy = heavy;
    ASSERT_TRUE(nodes[owner]->catalog->Ingest(name, std::move(copy)).ok());
  }
  ASSERT_TRUE(owns[0] && owns[1] && owns[2]);

  Coordinator::Options options;
  options.verify_shard_identity = false;
  Coordinator coord(*map, options);

  net::WireQueryRequest wire;
  wire.request.series = "heavy*";
  wire.request.query = ExtractQuery(heavy, 30'000, 512, 0.3, &rng);
  wire.request.params.type = QueryType::kCnsmDtw;
  wire.request.params.epsilon = 1e6;
  wire.request.params.alpha = 1e6;
  wire.request.params.beta = 1e6;
  wire.request.params.rho = 32;

  auto cancel = std::make_shared<CancelToken>();
  std::thread killer([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancel->Cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  net::FederatedResponse fed = coord.ExecutePattern(wire, cancel);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  killer.join();

  // Every sub-query ended Cancelled, so no shard contributed and the
  // whole federated answer is typed Cancelled — well before the queries'
  // natural runtime.
  EXPECT_TRUE(fed.status.IsCancelled()) << fed.status.ToString();
  EXPECT_EQ(fed.shards_ok, 0u);
  EXPECT_EQ(fed.shard_errors.size(), 3u);
  EXPECT_LT(elapsed_ms, 10'000.0);

  // The kCancel reached EVERY shard: each shard's own service observed
  // exactly its one sub-query cancelled.
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(nodes[s]->service->Stats().Value(Metric::kCancelled), 1u) << "shard " << s;
  }
}

TEST(CoordFederationTest, SecondQueryOnABusyShardAnswersWhileTheFirstRuns) {
  // One shard runs the never-finishing cNSM-DTW query of the cancel test
  // above. A second exact query on the same shard must answer while the
  // first one still runs: each call leases its own shard connection
  // instead of queueing behind the other's round trip. The shard verifies
  // each query on one worker, so the heavy query leaves the second worker
  // free.
  auto map = std::make_shared<ShardMap>();
  std::vector<std::unique_ptr<ShardNode>> nodes;
  nodes.push_back(StartShardNode(0, 1, map, /*threads=*/2,
                                 /*parallel_verify=*/false));
  auto built = ShardMap::FromEndpoints(
      {ShardEndpoint{"127.0.0.1", nodes[0]->server->port()}});
  ASSERT_TRUE(built.ok());
  *map = *built;

  Rng rng(4242);
  const TimeSeries heavy = GenerateSynthetic(60'000, &rng);
  TimeSeries heavy_copy = heavy;
  ASSERT_TRUE(nodes[0]->catalog->Ingest("heavy", std::move(heavy_copy)).ok());
  const TimeSeries light = GenerateSynthetic(kClusterLen, &rng);
  TimeSeries light_copy = light;
  ASSERT_TRUE(nodes[0]->catalog->Ingest("light", std::move(light_copy)).ok());

  Coordinator::Options options;
  options.verify_shard_identity = false;
  Coordinator coord(*map, options);

  net::WireQueryRequest slow;
  slow.request.series = "heavy";
  slow.request.query = ExtractQuery(heavy, 30'000, 512, 0.3, &rng);
  slow.request.params.type = QueryType::kCnsmDtw;
  slow.request.params.epsilon = 1e6;
  slow.request.params.alpha = 1e6;
  slow.request.params.beta = 1e6;
  slow.request.params.rho = 32;
  auto cancel = std::make_shared<CancelToken>();
  std::atomic<bool> slow_done{false};
  QueryResponse slow_response;
  std::thread runner([&] {
    slow_response = coord.ExecuteExact(slow, cancel);
    slow_done.store(true);
  });
  // Wait until the shard has the heavy query in hand.
  const auto wait_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (nodes[0]->service->Stats().Value(Metric::kQueriesInFlight) == 0 &&
         std::chrono::steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(nodes[0]->service->Stats().Value(Metric::kQueriesInFlight), 1u);

  net::WireQueryRequest quick;
  quick.request.series = "light";
  quick.request.query = ExtractQuery(light, 100, 128, 0.1, &rng);
  quick.request.params.type = QueryType::kRsmEd;
  quick.request.params.epsilon = 3.0;
  const QueryResponse fast = coord.ExecuteExact(quick, nullptr);
  EXPECT_TRUE(fast.status.ok()) << fast.status.ToString();
  EXPECT_FALSE(fast.matches.empty());
  EXPECT_FALSE(slow_done.load()) << "the second query waited for the first";

  cancel->Cancel();
  runner.join();
  EXPECT_TRUE(slow_response.status.IsCancelled())
      << slow_response.status.ToString();
  EXPECT_EQ(nodes[0]->service->Stats().Value(Metric::kCancelled), 1u);
}

}  // namespace
}  // namespace coord
}  // namespace kvmatch
