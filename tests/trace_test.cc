// Unit + integration tests for per-request query tracing: span
// recording and ordering through the QueryService's two-phase pipeline
// (including overlapping verify slices under parallel verify — the TSan
// target), the stage breakdown, and the JSON exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "service/trace.h"
#include "storage/mem_kvstore.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

using Clock = QueryTrace::Clock;

// ---------------------------------------------------------- QueryTrace

TEST(QueryTraceTest, SpansAreRelativeToOriginAndSortedByStart) {
  const auto origin = Clock::now();
  QueryTrace trace(origin);
  const auto t1 = origin + std::chrono::milliseconds(10);
  const auto t2 = origin + std::chrono::milliseconds(25);
  const auto t3 = origin + std::chrono::milliseconds(5);
  trace.AddSpan(kSpanProbe, t1, t2, {{"windows", 7}});
  trace.AddSpan(kSpanQueue, origin, t3);

  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start, not insertion order.
  EXPECT_EQ(spans[0].name, kSpanQueue);
  EXPECT_NEAR(spans[0].start_ms, 0.0, 1e-9);
  EXPECT_NEAR(spans[0].dur_ms, 5.0, 1e-9);
  EXPECT_EQ(spans[1].name, kSpanProbe);
  EXPECT_NEAR(spans[1].start_ms, 10.0, 1e-9);
  EXPECT_NEAR(spans[1].dur_ms, 15.0, 1e-9);
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "windows");
  EXPECT_EQ(spans[1].args[0].second, 7u);
}

TEST(QueryTraceTest, NegativeDurationsClampToZero) {
  QueryTrace trace;
  const auto now = Clock::now();
  trace.AddSpan(kSpanProbe, now, now - std::chrono::milliseconds(1));
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].dur_ms, 0.0);
}

TEST(QueryTraceTest, WorkerIdsAreDensePerThread) {
  QueryTrace trace;
  const auto now = Clock::now();
  trace.AddSpan(kSpanVerify, now, now);  // this thread -> worker 0
  std::thread([&trace, now] {
    trace.AddSpan(kSpanVerify, now, now);  // new thread -> worker 1
  }).join();
  trace.AddSpan(kSpanVerify, now, now);  // same thread -> still 0

  std::vector<uint64_t> workers;
  for (const auto& s : trace.spans()) workers.push_back(s.worker);
  std::sort(workers.begin(), workers.end());
  EXPECT_EQ(workers, (std::vector<uint64_t>{0, 0, 1}));
}

TEST(QueryTraceTest, ConcurrentAddSpanIsSafe) {
  QueryTrace trace;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto now = Clock::now();
        trace.AddSpan(kSpanVerify, now, now, {{"slice", 1}});
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto spans = trace.spans();
  EXPECT_EQ(spans.size(), static_cast<size_t>(kThreads) * kPerThread);
  uint64_t max_worker = 0;
  for (const auto& s : spans) max_worker = std::max(max_worker, s.worker);
  EXPECT_LT(max_worker, static_cast<uint64_t>(kThreads));
}

TEST(StageBreakdownTest, VerifyIsUnionOfOverlappingSlices) {
  const auto origin = Clock::now();
  QueryTrace trace(origin);
  const auto at = [&](double ms) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
  };
  trace.AddSpan(kSpanQueue, at(0), at(2));
  trace.AddSpan(kSpanProbe, at(2), at(10));
  // Three overlapping slices on [10, 30]: the union, not the 44 ms sum.
  trace.AddSpan(kSpanVerify, at(10), at(24));
  trace.AddSpan(kSpanVerify, at(11), at(30));
  trace.AddSpan(kSpanVerify, at(12), at(23));
  trace.AddSpan(kSpanSerialize, at(30), at(31));

  const StageBreakdown b = ComputeStageBreakdown(trace);
  EXPECT_NEAR(b.queue_ms, 2.0, 1e-6);
  EXPECT_NEAR(b.probe_ms, 8.0, 1e-6);
  EXPECT_NEAR(b.verify_ms, 20.0, 1e-6);
  EXPECT_NEAR(b.serialize_ms, 1.0, 1e-6);
  EXPECT_NEAR(b.TotalMs(), 31.0, 1e-6);
}

// ------------------------------------------------------------ exporters

TEST(TraceJsonTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\n\t"), "x\\n\\t");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(TraceJsonTest, ChromeJsonHasCompleteEventsInMicroseconds) {
  const auto origin = Clock::now();
  QueryTrace trace(origin);
  trace.AddSpan(kSpanProbe, origin + std::chrono::milliseconds(1),
                origin + std::chrono::milliseconds(3), {{"windows", 42}});
  const std::string json = TraceToChromeJson(trace);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"probe\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);   // µs
  EXPECT_NE(json.find("\"dur\":2000.000"), std::string::npos);  // µs
  EXPECT_NE(json.find("\"windows\":42"), std::string::npos);
}

TEST(TraceJsonTest, AppendChromeTraceEventsSeparatesQueriesByPid) {
  QueryTrace a, b;
  const auto now = Clock::now();
  a.AddSpan(kSpanProbe, now, now);
  b.AddSpan(kSpanVerify, now, now);
  std::string out = "[";
  AppendChromeTraceEvents(a, 0, &out);
  AppendChromeTraceEvents(b, 1, &out);
  out += "]";
  EXPECT_NE(out.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":1"), std::string::npos);
  // Events must be comma-separated across the two appends.
  EXPECT_NE(out.find("},{"), std::string::npos);
}

TEST(TraceJsonTest, SpansJsonIsOneArrayOfSpanObjects) {
  const auto origin = Clock::now();
  QueryTrace trace(origin);
  trace.AddSpan(kSpanQueue, origin, origin + std::chrono::milliseconds(2));
  trace.AddSpan(kSpanProbe, origin, origin + std::chrono::milliseconds(3));
  const std::string json = TraceSpansJson(trace);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line, always
  EXPECT_EQ(json.find("[{\"name\":\"queue\",\"start_ms\":0.000,"
                      "\"dur_ms\":2.000,"),
            0u)
      << json;
  EXPECT_NE(json.find("},{\"name\":\"probe\""), std::string::npos) << json;
  EXPECT_EQ(TraceSpansJson(QueryTrace()), "[]");
}

// -------------------------------------------- service integration

constexpr size_t kSeriesLen = 3000;
constexpr size_t kQueryLen = 100;

struct TracedServiceFixture {
  MemKvStore store;
  TimeSeries reference;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryService> service;

  explicit TracedServiceFixture(size_t threads, bool parallel_verify,
                                size_t slice_positions) {
    Catalog::Options copts;
    copts.session.wu = 25;
    copts.session.levels = 3;
    {
      Catalog ingest_catalog(&store, copts);
      Rng rng(321);
      TimeSeries x = GenerateSynthetic(kSeriesLen, &rng);
      reference = x;
      EXPECT_TRUE(ingest_catalog.Ingest("traced", std::move(x)).ok());
    }
    catalog = std::make_unique<Catalog>(&store, copts);
    QueryService::Options sopts;
    sopts.num_threads = threads;
    sopts.parallel_verify = parallel_verify;
    sopts.verify_slice_positions = slice_positions;
    service = std::make_unique<QueryService>(catalog.get(), sopts);
  }

  // A query guaranteed to reach phase 2: extracted from the data with
  // light noise, so the true occurrence survives the (sound) phase-1
  // filter as a candidate.
  QueryRequest MakeRequest(bool loose) {
    Rng rng(77);
    QueryRequest req;
    req.series = "traced";
    req.query = ExtractQuery(reference, kSeriesLen / 3, kQueryLen, 0.05,
                             &rng);
    if (loose) {
      // cNSM-ED with wide bounds: phase 1 prunes little, so nearly every
      // position is verified and phase 2 splits into many slices.
      req.params.type = QueryType::kCnsmEd;
      req.params.epsilon =
          0.75 * std::sqrt(2.0 * static_cast<double>(kQueryLen));
      req.params.alpha = 4.0;
      req.params.beta = 16.0;
    } else {
      req.params.type = QueryType::kRsmEd;
      req.params.epsilon = 5.0;
    }
    return req;
  }
};

TEST(ServiceTraceTest, UntracedRequestsCarryNoTrace) {
  TracedServiceFixture fx(/*threads=*/2, /*parallel_verify=*/false,
                          /*slice_positions=*/0);
  QueryRequest req = fx.MakeRequest(/*loose=*/false);
  ASSERT_FALSE(req.collect_trace);  // the default
  const QueryResponse response = fx.service->Submit(req).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.trace, nullptr);
}

TEST(ServiceTraceTest, TracedQueryRecordsOrderedPipelineSpans) {
  TracedServiceFixture fx(/*threads=*/2, /*parallel_verify=*/false,
                          /*slice_positions=*/64);
  QueryRequest req = fx.MakeRequest(/*loose=*/false);
  req.collect_trace = true;
  const QueryResponse response = fx.service->Submit(req).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_NE(response.trace, nullptr);
  EXPECT_GT(response.stats.candidate_positions, 0u);

  const auto spans = response.trace->spans();
  const TraceSpan* queue = nullptr;
  const TraceSpan* probe = nullptr;
  std::vector<const TraceSpan*> verifies;
  for (const auto& s : spans) {
    if (s.name == kSpanQueue) queue = &s;
    if (s.name == kSpanProbe) probe = &s;
    if (s.name == kSpanVerify) verifies.push_back(&s);
  }
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(probe, nullptr);
  ASSERT_FALSE(verifies.empty());

  constexpr double kEps = 1e-6;
  // Pipeline order: queue wait ends before the probe starts; every
  // verify slice starts after the probe ends.
  EXPECT_GE(queue->start_ms, -kEps);
  EXPECT_LE(queue->start_ms + queue->dur_ms, probe->start_ms + kEps);
  uint64_t candidates = 0;
  for (const TraceSpan* v : verifies) {
    EXPECT_GE(v->start_ms, probe->start_ms + probe->dur_ms - kEps);
    EXPECT_GE(v->dur_ms, 0.0);
    for (const auto& [key, value] : v->args) {
      if (key == "candidates") candidates += value;
    }
  }
  // Verify slices partition the candidate set exactly.
  EXPECT_EQ(candidates, response.stats.candidate_positions);

  // Every span fits inside the measured request latency, and the stage
  // breakdown never exceeds it (the gaps — session acquire, executor
  // setup — are real time the spans legitimately don't cover).
  const double slack = 0.05 * response.latency_ms + 1.0;
  for (const auto& s : spans) {
    EXPECT_GE(s.start_ms, -kEps);
    EXPECT_LE(s.start_ms + s.dur_ms, response.latency_ms + slack);
  }
  const StageBreakdown b = ComputeStageBreakdown(*response.trace);
  EXPECT_GT(b.TotalMs(), 0.0);
  EXPECT_LE(b.TotalMs(), response.latency_ms + slack);
}

TEST(ServiceTraceTest, ProbeSpanCountsEveryWindow) {
  TracedServiceFixture fx(/*threads=*/1, /*parallel_verify=*/false,
                          /*slice_positions=*/0);
  QueryRequest req = fx.MakeRequest(/*loose=*/false);
  req.collect_trace = true;
  const QueryResponse response = fx.service->Submit(req).get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.trace, nullptr);
  for (const auto& s : response.trace->spans()) {
    if (s.name != kSpanProbe) continue;
    uint64_t windows = 0;
    for (const auto& [key, value] : s.args) {
      if (key == "windows") windows = value;
    }
    // The disjoint-window plan for |Q|=100, wu=25 probes ⌊100/25⌋ = 4
    // windows at most (fewer only if the probe aborted, which it didn't).
    EXPECT_GT(windows, 0u);
    EXPECT_LE(windows, kQueryLen / 25);
  }
}

// The TSan target: many traced queries in flight at once, each fanning
// verify slices across the pool, so multiple workers append spans to
// multiple traces concurrently.
TEST(ServiceTraceTest, ParallelVerifySlicesTraceConcurrently) {
  TracedServiceFixture fx(/*threads=*/4, /*parallel_verify=*/true,
                          /*slice_positions=*/128);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 8; ++i) {
    QueryRequest req = fx.MakeRequest(/*loose=*/true);
    req.collect_trace = true;
    requests.push_back(std::move(req));
  }
  auto futures = fx.service->SubmitBatch(requests);
  size_t multi_slice = 0;
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.trace, nullptr);
    uint64_t candidates = 0;
    size_t verify_spans = 0;
    for (const auto& s : response.trace->spans()) {
      if (s.name != kSpanVerify) continue;
      ++verify_spans;
      for (const auto& [key, value] : s.args) {
        if (key == "candidates") candidates += value;
      }
    }
    EXPECT_EQ(candidates, response.stats.candidate_positions);
    if (verify_spans > 1) ++multi_slice;
    // The loose cNSM query keeps most of the series as candidates, so
    // phase 2 must have split: kSeriesLen/128 ≈ 20+ slices.
    EXPECT_GT(verify_spans, 1u);
  }
  EXPECT_EQ(multi_slice, futures.size());
}

TEST(ServiceTraceTest, AbortedQueryStillCarriesPartialTrace) {
  TracedServiceFixture fx(/*threads=*/1, /*parallel_verify=*/false,
                          /*slice_positions=*/16);
  QueryRequest req = fx.MakeRequest(/*loose=*/true);
  req.collect_trace = true;
  req.cancel = std::make_shared<CancelToken>();
  req.cancel->Cancel();  // cancelled before it ever runs
  const QueryResponse response = fx.service->Submit(req).get();
  EXPECT_FALSE(response.status.ok());
  // The trace exists (the request asked for one) even though execution
  // stopped at the first checkpoint; only the queue span is guaranteed.
  ASSERT_NE(response.trace, nullptr);
  const auto spans = response.trace->spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, kSpanQueue);
}

}  // namespace
}  // namespace kvmatch
