// Tests for the cooperative query executor: stepwise phase 1, bounded
// verify slices, cancellation/deadline semantics at both the executor and
// QueryService layers, and — most importantly — that the decomposed paths
// (stepwise, sliced, service-parallel, cancelled-and-retried) all return
// exactly the brute-force reference results. The racing-cancel test is a
// TSan target: N submitter threads against a canceller firing tokens at
// random while queries run.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "baseline/brute_force.h"
#include "common/rng.h"
#include "match/executor.h"
#include "matchdp/session.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

void ExpectSameMatches(const std::vector<MatchResult>& got,
                       const std::vector<MatchResult>& expected,
                       const char* label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, expected[i].offset) << label << " i=" << i;
    EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-6)
        << label << " i=" << i;
  }
}

/// A query whose phase 2 visits (nearly) every position and cannot finish
/// instantly: loose cNSM-DTW bounds force the full lower-bound cascade —
/// and usually the exact banded DTW — on each of ~n candidates.
QueryRequest HeavyRequest(const TimeSeries& series, size_t m, size_t rho) {
  Rng rng(909);
  QueryRequest req;
  req.series = "heavy";
  req.query = ExtractQuery(series, series.size() / 2, m, 0.3, &rng);
  req.params.type = QueryType::kCnsmDtw;
  req.params.epsilon = 1e6;  // never abandons, never prunes
  req.params.alpha = 1e6;
  req.params.beta = 1e6;
  req.params.rho = rho;
  return req;
}

TEST(QueryExecutorTest, SlicedExecutionAgreesWithSingleShotAndBruteForce) {
  Rng rng(51);
  const TimeSeries x = GenerateSynthetic(5000, &rng);
  auto session = Session::FromSeries(x, SmallOptions());
  ASSERT_TRUE(session.ok());

  const QueryParams cases[] = {
      {QueryType::kRsmEd, 6.0, 1.0, 0.0, 0},
      {QueryType::kRsmDtw, 4.0, 1.0, 0.0, 6},
      {QueryType::kCnsmEd, 4.0, 1.5, 2.0, 0},
      {QueryType::kCnsmDtw, 3.0, 1.5, 2.0, 6},
      {QueryType::kRsmL1, 60.0, 1.0, 0.0, 0},
  };
  for (const auto& params : cases) {
    const auto q = ExtractQuery(x, 700, 150, 0.2, &rng);
    const auto expected = BruteForceMatch(x, q, params);
    const auto single = (*session)->Query(q, params);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ExpectSameMatches(*single, expected, "single-shot");

    // Manual drive: step every probe, slice tiny, verify slice by slice.
    auto executor = (*session)->MakeExecutor(q, params);
    ASSERT_TRUE(executor.ok()) << executor.status().ToString();
    EXPECT_GT((*executor)->probes_total(), 0u);
    while (!(*executor)->phase1_done()) {
      ASSERT_TRUE((*executor)->StepProbe().ok());
    }
    EXPECT_EQ((*executor)->probes_done(), (*executor)->probes_total());
    const size_t slices = (*executor)->SliceCandidates(64);
    std::vector<MatchResult> sliced;
    MatchStats stats;
    for (size_t i = 0; i < slices; ++i) {
      auto part = (*executor)->VerifySlice(i, {}, &stats);
      ASSERT_TRUE(part.ok());
      sliced.insert(sliced.end(), part->begin(), part->end());
    }
    ExpectSameMatches(sliced, expected, "sliced");
    // Every candidate position was visited exactly once across slices.
    EXPECT_EQ(static_cast<int64_t>(stats.distance_calls + stats.lb_pruned +
                                   stats.constraint_pruned),
              (*executor)->candidates().num_positions());
  }
}

TEST(QueryExecutorTest, SliceDecompositionIsBoundedAndExhaustive) {
  Rng rng(52);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  auto session = Session::FromSeries(x, SmallOptions());
  ASSERT_TRUE(session.ok());
  QueryParams params{QueryType::kRsmEd, 20.0, 1.0, 0.0, 0};  // loose
  const auto q = ExtractQuery(x, 100, 100, 0.3, &rng);

  auto executor = (*session)->MakeExecutor(q, params);
  ASSERT_TRUE(executor.ok());
  ASSERT_TRUE((*executor)->RunPhase1().ok());
  const int64_t total = (*executor)->candidates().num_positions();
  ASSERT_GT(total, 100);  // loose ε: plenty of candidates

  const size_t max_positions = 37;
  const size_t slices = (*executor)->SliceCandidates(max_positions);
  EXPECT_EQ(slices, (*executor)->num_slices());
  int64_t covered = 0;
  for (size_t i = 0; i < slices; ++i) {
    const IntervalList& slice = (*executor)->slice(i);
    EXPECT_LE(slice.num_positions(),
              static_cast<int64_t>(max_positions));
    EXPECT_FALSE(slice.empty());
    covered += slice.num_positions();
  }
  EXPECT_EQ(covered, total);  // a partition: no loss, no overlap in count
  // Expected ceil-division slice count for a bounded partition.
  EXPECT_EQ(static_cast<int64_t>(slices),
            (total + static_cast<int64_t>(max_positions) - 1) /
                static_cast<int64_t>(max_positions));
}

TEST(QueryExecutorTest, CancelAndDeadlineStopAtCheckpoints) {
  Rng rng(53);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  auto session = Session::FromSeries(x, SmallOptions());
  ASSERT_TRUE(session.ok());
  QueryParams params{QueryType::kRsmEd, 20.0, 1.0, 0.0, 0};
  const auto q = ExtractQuery(x, 100, 100, 0.3, &rng);

  // Pre-cancelled token: phase 1 refuses to take a single step.
  {
    CancelToken token;
    token.Cancel();
    ExecContext ctx;
    ctx.cancel = &token;
    auto executor = (*session)->MakeExecutor(q, params);
    ASSERT_TRUE(executor.ok());
    const Status st = (*executor)->RunPhase1(ctx);
    EXPECT_TRUE(st.IsCancelled()) << st.ToString();
    EXPECT_EQ((*executor)->probes_done(), 0u);
  }

  // Expired deadline: same, but DeadlineExceeded.
  {
    ExecContext ctx;
    ctx.deadline = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1);
    auto executor = (*session)->MakeExecutor(q, params);
    ASSERT_TRUE(executor.ok());
    EXPECT_TRUE((*executor)->RunPhase1(ctx).IsDeadlineExceeded());
  }

  // Mid-phase-2 cancel stops within ONE slice: verify k slices, fire the
  // token, and the very next VerifySlice call returns Cancelled.
  {
    auto executor = (*session)->MakeExecutor(q, params);
    ASSERT_TRUE(executor.ok());
    ASSERT_TRUE((*executor)->RunPhase1().ok());
    const size_t slices = (*executor)->SliceCandidates(32);
    ASSERT_GT(slices, 4u);
    CancelToken token;
    ExecContext ctx;
    ctx.cancel = &token;
    MatchStats stats;
    size_t verified = 0;
    for (size_t i = 0; i < slices; ++i) {
      if (i == 3) token.Cancel();
      auto part = (*executor)->VerifySlice(i, ctx, &stats);
      if (!part.ok()) {
        EXPECT_TRUE(part.status().IsCancelled());
        break;
      }
      ++verified;
    }
    EXPECT_EQ(verified, 3u);  // slices 0..2 ran; slice 3 refused to start
    // Partial stats: exactly the three verified slices' positions.
    int64_t three_slices = 0;
    for (size_t i = 0; i < 3; ++i) {
      three_slices += (*executor)->slice(i).num_positions();
    }
    EXPECT_EQ(static_cast<int64_t>(stats.distance_calls + stats.lb_pruned +
                                   stats.constraint_pruned),
              three_slices);
  }
}

TEST(QueryExecutorTest, RunReportsPartialStatsOnAbort) {
  Rng rng(54);
  const TimeSeries x = GenerateSynthetic(4000, &rng);
  auto session = Session::FromSeries(x, SmallOptions());
  ASSERT_TRUE(session.ok());
  QueryParams params{QueryType::kRsmEd, 20.0, 1.0, 0.0, 0};
  const auto q = ExtractQuery(x, 100, 100, 0.3, &rng);

  // A deadline that expires immediately after phase 1: Run() aborts in
  // phase 2 but still carries the phase-1 candidate accounting.
  auto executor = (*session)->MakeExecutor(q, params);
  ASSERT_TRUE(executor.ok());
  ASSERT_TRUE((*executor)->RunPhase1().ok());
  (*executor)->SliceCandidates(16);
  ExecContext ctx;
  ctx.deadline = std::chrono::steady_clock::now();
  MatchStats stats;
  auto result = (*executor)->Run(ctx, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_GT(stats.candidate_positions, 0u);
  EXPECT_GT(stats.probe.index_accesses, 0u);
}

// ---------------------------------------------------------------- service

struct ServiceFixture {
  MemKvStore store;
  TimeSeries reference;
  std::unique_ptr<Catalog> catalog;

  explicit ServiceFixture(size_t n) {
    Rng rng(77);
    reference = GenerateSynthetic(n, &rng);
    Catalog::Options copts;
    copts.session = SmallOptions();
    catalog = std::make_unique<Catalog>(&store, copts);
    EXPECT_TRUE(catalog->Ingest("heavy", reference).ok());
  }
};

TEST(QueryServiceExecutorTest, ParallelVerifySlicesMatchSerialExecution) {
  ServiceFixture fx(6000);
  QueryParams params{QueryType::kCnsmEd, 5.0, 2.0, 8.0, 0};
  Rng rng(78);

  auto session = fx.catalog->Acquire("heavy");
  ASSERT_TRUE(session.ok());

  QueryService::Options popts;
  popts.num_threads = 4;
  popts.parallel_verify = true;
  popts.verify_slice_positions = 128;  // force many slices
  QueryService parallel(fx.catalog.get(), popts);

  QueryService::Options sopts_serial = popts;
  sopts_serial.parallel_verify = false;
  QueryService serial(fx.catalog.get(), sopts_serial);

  for (int trial = 0; trial < 3; ++trial) {
    QueryRequest req;
    req.series = "heavy";
    const size_t m = 100 + 50 * trial;
    req.query = ExtractQuery(fx.reference, 500 + 700 * trial, m, 0.2, &rng);
    req.params = params;

    const auto expected = BruteForceMatch(fx.reference, req.query,
                                          req.params);
    const QueryResponse from_parallel = parallel.Submit(req).get();
    const QueryResponse from_serial = serial.Submit(req).get();
    ASSERT_TRUE(from_parallel.status.ok())
        << from_parallel.status.ToString();
    ASSERT_TRUE(from_serial.status.ok());
    ExpectSameMatches(from_parallel.matches, expected, "parallel");
    ExpectSameMatches(from_serial.matches, expected, "serial");
    // Both paths verified every candidate exactly once.
    EXPECT_EQ(from_parallel.stats.distance_calls +
                  from_parallel.stats.lb_pruned +
                  from_parallel.stats.constraint_pruned,
              from_serial.stats.distance_calls +
                  from_serial.stats.lb_pruned +
                  from_serial.stats.constraint_pruned);
  }
  EXPECT_EQ(parallel.InFlight(), 0u);
}

TEST(QueryServiceExecutorTest, DeadlineAbortsRunningQueryMidPhase2) {
  ServiceFixture fx(60'000);
  QueryService::Options opts;
  opts.num_threads = 1;
  QueryService service(fx.catalog.get(), opts);

  // The worker is idle, so the request dequeues immediately and the 30ms
  // budget expires mid-execution (the query needs far longer than that):
  // the abort must come from a probe/slice checkpoint, carrying partial
  // stats and the dedicated mid-flight counter.
  QueryRequest req = HeavyRequest(fx.reference, 512, 32);
  req.timeout_ms = 30.0;
  const QueryResponse response = service.Submit(req).get();
  ASSERT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_TRUE(response.matches.empty());
  // Partial progress was made and reported.
  EXPECT_GT(response.stats.probe.index_accesses, 0u);

  const ServiceStatsSnapshot snap = service.Stats();
  EXPECT_EQ(snap.Value(Metric::kDeadlineAbortedRunning), 1u);
  EXPECT_EQ(snap.Value(Metric::kDeadlineExceeded), 0u);  // it DID start running
  EXPECT_EQ(snap.Value(Metric::kQueriesInFlight), 0u);
}

TEST(QueryServiceExecutorTest, CancelByRequestIdAbortsRunningQuery) {
  ServiceFixture fx(60'000);
  QueryService::Options opts;
  opts.num_threads = 1;
  QueryService service(fx.catalog.get(), opts);

  std::promise<QueryResponse> delivered;
  const uint64_t id = service.SubmitWithCallback(
      HeavyRequest(fx.reference, 512, 32),
      [&](QueryResponse response) { delivered.set_value(std::move(response)); });
  // Let the (idle) worker pick it up, then cancel mid-flight. The query
  // runs for many seconds uncancelled, so 50ms is deep inside execution.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(service.Cancel(id).ok());

  const QueryResponse response = delivered.get_future().get();
  ASSERT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  EXPECT_TRUE(response.matches.empty());

  const ServiceStatsSnapshot snap = service.Stats();
  EXPECT_EQ(snap.Value(Metric::kCancelled), 1u);
  EXPECT_EQ(snap.Value(Metric::kQueriesInFlight), 0u);
  // The id is gone once answered.
  EXPECT_TRUE(service.Cancel(id).IsNotFound());
}

TEST(QueryServiceExecutorTest, CancelQueuedRequestNeverExecutes) {
  ServiceFixture fx(60'000);
  QueryService::Options opts;
  opts.num_threads = 1;
  QueryService service(fx.catalog.get(), opts);

  // Occupy the only worker, queue a second request, cancel it while it
  // waits: it must answer Cancelled without running (no per-series query
  // recorded for it).
  auto busy_token = std::make_shared<CancelToken>();
  QueryRequest busy = HeavyRequest(fx.reference, 512, 32);
  busy.cancel = busy_token;
  auto busy_future = service.Submit(busy);

  QueryRequest queued;
  queued.series = "heavy";
  Rng rng(5);
  queued.query = ExtractQuery(fx.reference, 10, 100, 0.0, &rng);
  queued.params.epsilon = 1.0;
  std::promise<QueryResponse> delivered;
  const uint64_t id = service.SubmitWithCallback(
      std::move(queued),
      [&](QueryResponse response) { delivered.set_value(std::move(response)); });
  EXPECT_TRUE(service.Cancel(id).ok());
  busy_token->Cancel();  // release the worker

  EXPECT_TRUE(busy_future.get().status.IsCancelled());
  const QueryResponse response = delivered.get_future().get();
  EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  EXPECT_EQ(service.Stats().Value(Metric::kCancelled), 2u);
  EXPECT_EQ(service.Stats().Value(Metric::kQueries), 0u);  // neither ever completed
}

TEST(QueryServiceExecutorTest, CancelUnknownIdIsNotFound) {
  ServiceFixture fx(1000);
  QueryService service(fx.catalog.get(), {.num_threads = 1});
  EXPECT_TRUE(service.Cancel(123456789).IsNotFound());
}

// The TSan centerpiece: submitter threads race a canceller that fires
// tokens while queries run. Every response must be either Cancelled or
// exactly the reference answer — nothing torn, no counter drift, and the
// in-flight gauge returns to zero.
TEST(QueryServiceExecutorTest, RacingCancelsAgainstRunningQueries) {
  ServiceFixture fx(8000);
  QueryService::Options opts;
  opts.num_threads = 4;
  opts.verify_slice_positions = 256;  // frequent checkpoints
  QueryService service(fx.catalog.get(), opts);

  // A moderately slow query (loose DTW) so cancels land mid-flight often.
  QueryRequest base = HeavyRequest(fx.reference, 128, 8);
  const auto expected =
      BruteForceMatch(fx.reference, base.query, base.params);

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 6;
  std::vector<std::shared_ptr<CancelToken>> tokens(kSubmitters * kPerThread);
  for (auto& t : tokens) t = std::make_shared<CancelToken>();

  std::atomic<bool> stop_cancelling{false};
  std::thread canceller([&] {
    Rng rng(99);
    while (!stop_cancelling.load(std::memory_order_relaxed)) {
      tokens[static_cast<size_t>(rng.UniformInt(
                 0, static_cast<int64_t>(tokens.size()) - 1))]
          ->Cancel();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> submitters;
  std::atomic<size_t> ok_count{0}, cancelled_count{0};
  std::vector<std::string> failures(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRequest req = base;
        req.cancel = tokens[static_cast<size_t>(t * kPerThread + i)];
        const QueryResponse response = service.Submit(req).get();
        if (response.status.ok()) {
          if (response.matches.size() != expected.size()) {
            failures[t] = "torn result";
            return;
          }
          ok_count.fetch_add(1);
        } else if (response.status.IsCancelled()) {
          cancelled_count.fetch_add(1);
        } else {
          failures[t] = response.status.ToString();
          return;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop_cancelling.store(true);
  canceller.join();
  for (const auto& failure : failures) EXPECT_EQ(failure, "");

  const ServiceStatsSnapshot snap = service.Stats();
  EXPECT_EQ(ok_count.load() + cancelled_count.load(),
            static_cast<size_t>(kSubmitters * kPerThread));
  EXPECT_EQ(snap.Value(Metric::kCancelled), cancelled_count.load());
  EXPECT_EQ(snap.Value(Metric::kQueriesInFlight), 0u);
  EXPECT_EQ(service.InFlight(), 0u);
}

}  // namespace
}  // namespace kvmatch
