// Tests for the service layer: Catalog registration/eviction and the
// QueryService's concurrent execution — most importantly that a mixed
// ε/top-k workload executed by many worker threads returns exactly the
// results of serial execution.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "latched_kvstore.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

constexpr size_t kNumSeries = 6;
constexpr size_t kSeriesLen = 4000;

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

std::string SeriesName(size_t i) { return "s" + std::to_string(i); }

// Ingests kNumSeries synthetic series into `store` and returns copies of
// their values for query extraction.
std::vector<TimeSeries> IngestFixture(KvStore* store) {
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog ingest_catalog(store, copts);
  std::vector<TimeSeries> references;
  for (size_t i = 0; i < kNumSeries; ++i) {
    Rng rng(1000 + i);
    TimeSeries x = GenerateSynthetic(kSeriesLen, &rng);
    references.push_back(x);
    EXPECT_TRUE(ingest_catalog.Ingest(SeriesName(i), std::move(x)).ok());
  }
  return references;
}

// A deterministic mixed workload: every series, all five query types,
// ε-threshold and top-k, varying lengths and offsets.
std::vector<QueryRequest> MakeWorkload(const std::vector<TimeSeries>& refs,
                                       size_t count) {
  const QueryType kTypes[] = {QueryType::kRsmEd, QueryType::kRsmDtw,
                              QueryType::kCnsmEd, QueryType::kCnsmDtw,
                              QueryType::kRsmL1};
  Rng rng(77);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    const size_t series = i % refs.size();
    QueryRequest req;
    req.series = SeriesName(series);
    const size_t qlen = 100 + 40 * (i % 4);
    const size_t qoff = (137 * i) % (kSeriesLen - qlen);
    req.query = ExtractQuery(refs[series], qoff, qlen, 0.1, &rng);
    req.params.type = kTypes[i % 5];
    req.params.epsilon = 2.0 + static_cast<double>(i % 4);
    req.params.alpha = 1.5;
    req.params.beta = 3.0;
    req.params.rho = 5;
    if (i % 7 == 3) req.top_k = 5;  // every 7th request is a top-k search
    requests.push_back(std::move(req));
  }
  return requests;
}

// Serial reference execution: one thread, straight through the sessions.
std::vector<std::vector<MatchResult>> RunSerial(
    Catalog* catalog, const std::vector<QueryRequest>& requests) {
  std::vector<std::vector<MatchResult>> results;
  for (const auto& req : requests) {
    auto session = catalog->Acquire(req.series);
    EXPECT_TRUE(session.ok());
    auto matches = req.top_k > 0
                       ? (*session)->QueryTopK(req.query, req.params,
                                               req.top_k, req.topk_options)
                       : (*session)->Query(req.query, req.params);
    EXPECT_TRUE(matches.ok());
    results.push_back(std::move(matches).value());
  }
  return results;
}

TEST(QueryServiceTest, ConcurrentMixedWorkloadMatchesSerialExecution) {
  MemKvStore store;
  const auto refs = IngestFixture(&store);
  const auto requests = MakeWorkload(refs, 60);

  // Serial baseline over one catalog, concurrent run over a second,
  // freshly opened one (store-backed sessions, cold row caches) so the
  // synchronized read path does real work.
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog serial_catalog(&store, copts);
  const auto expected = RunSerial(&serial_catalog, requests);

  Catalog concurrent_catalog(&store, copts);
  QueryService::Options sopts;
  sopts.num_threads = 8;
  QueryService service(&concurrent_catalog, sopts);
  ASSERT_EQ(service.num_threads(), 8u);

  // Three interleaved copies of the batch stress session sharing and the
  // row caches; each copy must still match the serial baseline exactly.
  std::vector<std::vector<std::future<QueryResponse>>> rounds;
  for (int round = 0; round < 3; ++round) {
    rounds.push_back(service.SubmitBatch(requests));
  }
  for (auto& futures : rounds) {
    ASSERT_EQ(futures.size(), requests.size());
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryResponse response = futures[i].get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.matches, expected[i]) << "request " << i;
    }
  }

  const ServiceStatsSnapshot snap = service.Stats();
  EXPECT_EQ(snap.Value(Metric::kQueries), 3 * requests.size());
  EXPECT_EQ(snap.Value(Metric::kQueryErrors), 0u);
  EXPECT_EQ(snap.series.size(), kNumSeries);
  uint64_t per_series_total = 0;
  for (const auto& s : snap.series) {
    EXPECT_GT(s.queries, 0u);
    EXPECT_LE(s.latency.min_ms, s.latency.p99_ms);
    EXPECT_LE(s.latency.p99_ms, s.latency.max_ms);
    per_series_total += s.queries;
  }
  EXPECT_EQ(per_series_total, snap.Value(Metric::kQueries));
}

TEST(CatalogTest, ReopensIngestedSeriesFromStore) {
  MemKvStore store;
  const auto refs = IngestFixture(&store);

  Catalog catalog(&store);
  EXPECT_EQ(catalog.ListSeries().size(), kNumSeries);
  EXPECT_TRUE(catalog.Contains("s0"));
  EXPECT_FALSE(catalog.Contains("nope"));

  auto session = catalog.Acquire("s2");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->series().size(), kSeriesLen);
  EXPECT_TRUE(catalog.Acquire("nope").status().IsNotFound());

  // Re-acquire hits the cache: same underlying session object.
  auto again = catalog.Acquire("s2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session->get(), again->get());
}

TEST(CatalogTest, RejectsBadAndDuplicateNames) {
  MemKvStore store;
  Catalog catalog(&store);
  Rng rng(9);
  EXPECT_TRUE(
      catalog.Ingest("ok-name", GenerateSynthetic(500, &rng)).ok());
  EXPECT_TRUE(catalog.Ingest("ok-name", GenerateSynthetic(500, &rng))
                  .IsInvalidArgument());
  EXPECT_TRUE(catalog.Ingest("bad/name", GenerateSynthetic(500, &rng))
                  .IsInvalidArgument());
  EXPECT_TRUE(
      catalog.Ingest("", GenerateSynthetic(500, &rng)).IsInvalidArgument());
}

TEST(CatalogTest, EvictsColdSessionsUnderMemoryBudget) {
  MemKvStore store;
  const auto refs = IngestFixture(&store);

  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog probe(&store, copts);
  const uint64_t one = (*probe.Acquire("s0"))->MemoryBytes();

  copts.memory_budget_bytes = 2 * one + one / 2;  // fits two sessions
  Catalog catalog(&store, copts);
  for (size_t i = 0; i < kNumSeries; ++i) {
    auto session = catalog.Acquire(SeriesName(i));
    ASSERT_TRUE(session.ok());
    // Evicted or not, acquired sessions stay queryable.
    QueryParams params;
    params.epsilon = 3.0;
    Rng rng(5);
    const auto q = ExtractQuery(refs[i], 50, 100, 0.0, &rng);
    EXPECT_TRUE((*session)->Query(q, params).ok());
  }
  EXPECT_LE(catalog.cached_sessions(), 2u);
  EXPECT_LE(catalog.cached_bytes(), copts.memory_budget_bytes);

  // The budget never evicts the most recently used entry.
  EXPECT_GE(catalog.cached_sessions(), 1u);
}

TEST(CatalogTest, ConcurrentMissesShareOneOpen) {
  MemKvStore base;
  IngestFixture(&base);
  LatchedKvStore store(&base);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);
  store.Arm("series/s1/");

  constexpr size_t kThreads = 4;
  std::vector<std::shared_ptr<const Session>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = catalog.Acquire("s1");
      if (session.ok()) got[t] = *session;
    });
  }
  ASSERT_TRUE(store.WaitForStalled(1, 5000.0));
  // The other misses wait for the first open instead of starting their
  // own: no second read ever reaches the store.
  const bool second_open = store.WaitForStalled(2, 200.0);
  store.Release();
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(second_open);
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t], got[0]);
  }
  EXPECT_EQ(catalog.cached_sessions(), 1u);
}

// Sharing is per series: a cold open stalled in the store does not hold
// up a miss on another series.
TEST(CatalogTest, MissesOnDifferentSeriesOpenSideBySide) {
  MemKvStore base;
  IngestFixture(&base);
  LatchedKvStore store(&base);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);
  store.Arm("series/s1/");

  std::thread stalled([&] { EXPECT_TRUE(catalog.Acquire("s1").ok()); });
  ASSERT_TRUE(store.WaitForStalled(1, 5000.0));
  auto other = std::async(std::launch::async,
                          [&] { return catalog.Acquire("s2").ok(); });
  const bool opened =
      other.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  store.Release();
  stalled.join();
  EXPECT_TRUE(opened);
  EXPECT_TRUE(other.get());
  EXPECT_EQ(catalog.cached_sessions(), 2u);
}

TEST(QueryServiceTest, ShedsLoadWhenQueueIsFull) {
  MemKvStore store;
  const auto refs = IngestFixture(&store);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);

  QueryService::Options sopts;
  sopts.num_threads = 1;
  sopts.max_queue = 2;
  QueryService service(&catalog, sopts);

  const auto requests = MakeWorkload(refs, 40);
  auto futures = service.SubmitBatch(requests);

  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(response.status.IsResourceExhausted())
          << response.status.ToString();
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, requests.size());
  EXPECT_GT(shed, 0u);  // 40 instant submissions cannot fit a queue of 2
  EXPECT_GT(ok, 0u);    // the worker drains at least the accepted ones
  EXPECT_EQ(service.Stats().Value(Metric::kRejected), shed);
}

TEST(QueryServiceTest, ExpiredRequestsFailWithDeadlineExceeded) {
  MemKvStore store;
  const auto refs = IngestFixture(&store);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);

  QueryService::Options sopts;
  sopts.num_threads = 1;
  QueryService service(&catalog, sopts);

  // Occupy the single worker, then enqueue a request whose budget is
  // (effectively) already spent: by the time it is dequeued the deadline
  // has passed and it must fail without executing.
  auto requests = MakeWorkload(refs, 2);
  auto busy = service.Submit(requests[0]);
  requests[1].timeout_ms = 1e-6;
  auto expired = service.Submit(requests[1]);

  EXPECT_TRUE(busy.get().status.ok());
  const QueryResponse response = expired.get();
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_TRUE(response.matches.empty());
  EXPECT_EQ(service.Stats().Value(Metric::kDeadlineExceeded), 1u);
}

TEST(QueryServiceTest, SpentBudgetFailsFastWithoutQueueing) {
  MemKvStore store;
  const auto refs = IngestFixture(&store);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);
  QueryService service(&catalog, {.num_threads = 1, .max_queue = 4});

  // A negative budget is spent by definition: the request must be
  // answered inline with DeadlineExceeded, never occupying a queue slot
  // or executing.
  auto requests = MakeWorkload(refs, 1);
  requests[0].timeout_ms = -1.0;
  const QueryResponse response = service.Submit(requests[0]).get();
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_TRUE(response.matches.empty());

  const ServiceStatsSnapshot snap = service.Stats();
  EXPECT_EQ(snap.Value(Metric::kDeadlineExceeded), 1u);
  EXPECT_EQ(snap.Value(Metric::kQueries), 0u);  // it never ran
}

TEST(QueryServiceTest, CallbackSubmissionDeliversOutOfOrder) {
  MemKvStore store;
  const auto refs = IngestFixture(&store);
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);
  QueryService service(&catalog, {.num_threads = 4});

  const auto requests = MakeWorkload(refs, 24);
  std::mutex mu;
  std::condition_variable cv;
  size_t delivered = 0;
  std::vector<QueryResponse> responses(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    service.SubmitWithCallback(requests[i], [&, i](QueryResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      responses[i] = std::move(response);
      delivered += 1;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return delivered == requests.size(); });

  Catalog serial_catalog(&store, copts);
  const auto expected = RunSerial(&serial_catalog, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_EQ(responses[i].matches, expected[i]) << "request " << i;
  }
}

TEST(QueryServiceTest, UnknownSeriesReportsNotFound) {
  MemKvStore store;
  Catalog catalog(&store);
  QueryService service(&catalog);

  QueryRequest req;
  req.series = "missing";
  req.query.assign(100, 0.0);
  req.params.epsilon = 1.0;
  EXPECT_TRUE(service.Submit(std::move(req)).get().status.IsNotFound());
}

}  // namespace
}  // namespace kvmatch
