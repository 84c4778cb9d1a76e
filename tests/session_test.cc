// Tests for the Session facade: in-memory, ingest, reopen, query types,
// top-k, the exploratory re-tuning loop, and window statistics built on
// the first cNSM query (memory accounting, answers, one concurrent build,
// and what that does to the Catalog's budget).
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <latch>
#include <thread>

#include "baseline/brute_force.h"
#include "common/rng.h"
#include "matchdp/session.h"
#include "service/catalog.h"
#include "storage/mem_kvstore.h"
#include "storage/minikv.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

namespace fs = std::filesystem;

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

TEST(SessionTest, FromSeriesAnswersAllQueryTypes) {
  Rng rng(501);
  TimeSeries x = GenerateSynthetic(6000, &rng);
  const TimeSeries reference = x;  // session takes ownership
  auto session = Session::FromSeries(std::move(x), SmallOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->num_indexes(), 3u);
  EXPECT_GT((*session)->IndexBytes(), 0u);

  const auto q = ExtractQuery(reference, 2000, 150, 0.2, &rng);
  for (QueryType type : {QueryType::kRsmEd, QueryType::kRsmDtw,
                         QueryType::kCnsmEd, QueryType::kCnsmDtw}) {
    QueryParams params{type, 3.5, 1.5, 3.0, 5};
    const auto expected = BruteForceMatch(reference, q, params);
    MatchStats stats;
    auto got = (*session)->Query(q, params, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), expected.size())
        << "type=" << static_cast<int>(type);
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].offset, expected[i].offset);
    }
  }
}

TEST(SessionTest, SeriesTooShortRejected) {
  TimeSeries tiny(std::vector<double>(10, 1.0));
  auto session = Session::FromSeries(std::move(tiny), SmallOptions());
  EXPECT_FALSE(session.ok());
}

TEST(SessionTest, IngestThenOpenRoundTrip) {
  Rng rng(502);
  TimeSeries x = GenerateUcrLike(8000, &rng);
  const TimeSeries reference = x;
  MemKvStore store;
  {
    auto ingested = Session::Ingest(&store, std::move(x), SmallOptions());
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  }
  auto session = Session::Open(&store, SmallOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->series().values(), reference.values());

  const auto q = ExtractQuery(reference, 3000, 200, 0.1, &rng);
  QueryParams params{QueryType::kCnsmEd, 3.0, 1.5, 2.0, 0};
  const auto expected = BruteForceMatch(reference, q, params);
  MatchStats stats;
  auto got = (*session)->Query(q, params, &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), expected.size());
  // Store-backed probes actually read from the store.
  EXPECT_GT(stats.probe.bytes_fetched + stats.probe.cache_hits, 0u);
}

TEST(SessionTest, OpenOverMiniKvSurvivesCompaction) {
  Rng rng(503);
  TimeSeries x = GenerateSynthetic(6000, &rng);
  const TimeSeries reference = x;
  const std::string dir =
      (fs::temp_directory_path() / "kvm_session_minikv").string();
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  {
    auto ingested = Session::Ingest(kv->get(), std::move(x), SmallOptions());
    ASSERT_TRUE(ingested.ok());
  }
  ASSERT_TRUE((*kv)->Compact().ok());
  auto session = Session::Open(kv->get(), SmallOptions());
  ASSERT_TRUE(session.ok());
  const auto q = ExtractQuery(reference, 1000, 100, 0.2, &rng);
  QueryParams params{QueryType::kRsmEd, 4.0, 1.0, 0.0, 0};
  const auto expected = BruteForceMatch(reference, q, params);
  auto got = (*session)->Query(q, params);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), expected.size());
  fs::remove_all(dir);
}

TEST(SessionTest, OpenWithoutIngestFails) {
  MemKvStore empty;
  auto session = Session::Open(&empty, SmallOptions());
  EXPECT_FALSE(session.ok());
}

TEST(SessionTest, TopKMatchesThresholdSemantics) {
  Rng rng(504);
  TimeSeries x = GenerateSynthetic(6000, &rng);
  const TimeSeries reference = x;
  auto session = Session::FromSeries(std::move(x), SmallOptions());
  ASSERT_TRUE(session.ok());
  const auto q = ExtractQuery(reference, 2500, 150, 0.3, &rng);
  QueryParams params{QueryType::kRsmEd, 0.0, 1.0, 0.0, 0};
  auto top = (*session)->QueryTopK(q, params, 8);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 8u);
  // Distances are sorted and each result is a genuine ε-match at its own
  // distance.
  for (size_t i = 1; i < top->size(); ++i) {
    EXPECT_GE((*top)[i].distance, (*top)[i - 1].distance);
  }
  params.epsilon = (*top)[7].distance + 1e-9;
  const auto all = BruteForceMatch(reference, q, params);
  EXPECT_GE(all.size(), 8u);
}

TEST(SessionTest, ExploratoryRetuningLoop) {
  // The paper's pitch: one index, interactive knob turning. Tighten β
  // progressively and observe a monotone shrinking result set.
  Rng rng(505);
  TimeSeries x = GenerateSynthetic(8000, &rng);
  const TimeSeries reference = x;
  auto session = Session::FromSeries(std::move(x), SmallOptions());
  ASSERT_TRUE(session.ok());
  const auto q = ExtractQuery(reference, 4000, 200, 0.3, &rng);
  size_t prev = SIZE_MAX;
  for (double beta : {10.0, 5.0, 2.0, 0.5}) {
    QueryParams params{QueryType::kCnsmEd, 4.0, 1.5, beta, 0};
    auto got = (*session)->Query(q, params);
    ASSERT_TRUE(got.ok());
    EXPECT_LE(got->size(), prev) << "beta=" << beta;
    prev = got->size();
  }
}

// ---- Window statistics on first cNSM use ----

constexpr QueryType kRsmTypes[] = {QueryType::kRsmEd, QueryType::kRsmDtw,
                                   QueryType::kRsmL1};
constexpr QueryType kCnsmTypes[] = {QueryType::kCnsmEd, QueryType::kCnsmDtw};

// (offset, distance bits): equal lists are bit-identical answers.
std::vector<std::pair<size_t, uint64_t>> Bits(
    const std::vector<MatchResult>& matches) {
  std::vector<std::pair<size_t, uint64_t>> out;
  for (const auto& m : matches) {
    out.emplace_back(m.offset, std::bit_cast<uint64_t>(m.distance));
  }
  return out;
}

TEST(SessionStatsTest, RsmQueriesLeaveStatisticsUnbuilt) {
  Rng rng(506);
  TimeSeries x = GenerateSynthetic(6000, &rng);
  const TimeSeries reference = x;
  const uint64_t n = x.size();
  auto session = Session::FromSeries(std::move(x), SmallOptions());
  ASSERT_TRUE(session.ok());
  // In-memory indexes have no row caches, so the accounting is exact.
  const uint64_t rsm_bytes = 8 * n + (*session)->IndexBytes();
  EXPECT_EQ((*session)->MemoryBytes(), rsm_bytes);

  // Noise-free: every type finds at least the window itself.
  const auto q = ExtractQuery(reference, 2000, 150, 0.0, &rng);
  for (QueryType type : kRsmTypes) {
    QueryParams params{type, 3.5, 1.5, 3.0, 5};
    auto got = (*session)->Query(q, params);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->empty());
    auto top = (*session)->QueryTopK(q, params, 4);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    EXPECT_EQ((*session)->MemoryBytes(), rsm_bytes)
        << "type=" << static_cast<int>(type);
  }

  QueryParams cnsm{QueryType::kCnsmEd, 3.5, 1.5, 3.0, 0};
  ASSERT_TRUE((*session)->Query(q, cnsm).ok());
  EXPECT_EQ((*session)->MemoryBytes(), rsm_bytes + 16 * (n + 1));
  // Built once: further cNSM queries add nothing.
  cnsm.type = QueryType::kCnsmDtw;
  ASSERT_TRUE((*session)->Query(q, cnsm).ok());
  EXPECT_EQ((*session)->MemoryBytes(), rsm_bytes + 16 * (n + 1));
}

TEST(SessionStatsTest, CnsmAnswersEqualThoseOfForcedStatistics) {
  Rng rng(507);
  const TimeSeries reference = GenerateUcrLike(8000, &rng);
  auto lazy = Session::FromSeries(reference, SmallOptions());
  auto forced = Session::FromSeries(reference, SmallOptions());
  ASSERT_TRUE(lazy.ok() && forced.ok());
  // Force the statistics of one session before its first real query.
  const auto warmup = ExtractQuery(reference, 100, 100, 0.0, &rng);
  ASSERT_TRUE((*forced)
                  ->Query(warmup, {QueryType::kCnsmEd, 1.0, 1.5, 2.0, 0})
                  .ok());
  ASSERT_GT((*forced)->MemoryBytes(), (*lazy)->MemoryBytes());

  for (size_t i = 0; i < 6; ++i) {
    const auto q = ExtractQuery(reference, 700 * i + 300, 120 + 20 * i,
                                0.1, &rng);
    for (QueryType type : kCnsmTypes) {
      const QueryParams params{type, 3.0, 1.5, 2.0, 6};
      auto got = (*lazy)->Query(q, params);
      auto want = (*forced)->Query(q, params);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(Bits(*got), Bits(*want))
          << "query " << i << " type=" << static_cast<int>(type);
      auto got_top = (*lazy)->QueryTopK(q, params, 5);
      auto want_top = (*forced)->QueryTopK(q, params, 5);
      ASSERT_TRUE(got_top.ok() && want_top.ok());
      EXPECT_EQ(Bits(*got_top), Bits(*want_top));
    }
  }
}

TEST(SessionStatsTest, ConcurrentFirstCnsmQueriesBuildStatisticsOnce) {
  Rng rng(508);
  const TimeSeries reference = GenerateUcrLike(20000, &rng);
  const uint64_t n = reference.size();
  const auto q = ExtractQuery(reference, 9000, 200, 0.1, &rng);
  const QueryParams params{QueryType::kCnsmEd, 3.0, 1.5, 2.0, 0};
  auto serial = Session::FromSeries(reference, SmallOptions());
  ASSERT_TRUE(serial.ok());
  auto want = (*serial)->Query(q, params);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want->empty());

  auto session = Session::FromSeries(reference, SmallOptions());
  ASSERT_TRUE(session.ok());
  const uint64_t before = (*session)->MemoryBytes();
  constexpr size_t kThreads = 8;
  std::latch start(kThreads);
  std::vector<Result<std::vector<MatchResult>>> got(
      kThreads, Status::Cancelled("not run"));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = (*session)->Query(q, params);
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(got[t].ok()) << got[t].status().ToString();
    EXPECT_EQ(Bits(*got[t]), Bits(*want)) << "thread " << t;
  }
  EXPECT_EQ((*session)->MemoryBytes(), before + 16 * (n + 1));

  // The oracle itself: eight first callers get one pair of arrays.
  const PrefixStats oracle(reference);
  EXPECT_EQ(oracle.MemoryBytes(), 0u);
  std::latch oracle_start(kThreads);
  std::vector<const double*> sums(kThreads), squares(kThreads);
  threads.clear();
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      oracle_start.arrive_and_wait();
      sums[t] = oracle.prefix_sums().data();
      squares[t] = oracle.prefix_squares().data();
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(sums[t], sums[0]);
    EXPECT_EQ(squares[t], squares[0]);
  }
  EXPECT_EQ(oracle.MemoryBytes(), 16 * (n + 1));
  EXPECT_EQ(oracle.prefix_sums().size(), n + 1);
}

// RSM-only sessions are 8 bytes per point plus their index, so four of
// them fit a budget that four sessions with statistics (24 bytes per
// point) would overflow; cNSM queries grow them and evictions resume.
TEST(SessionStatsTest, RsmOnlySessionsFitTheCatalogBudget) {
  constexpr size_t kSeries = 4;
  constexpr uint64_t kLen = 20000;
  MemKvStore store;
  std::vector<TimeSeries> refs;
  Catalog::Options copts;
  copts.session = SmallOptions();
  {
    Catalog ingest(&store, copts);
    for (size_t i = 0; i < kSeries; ++i) {
      Rng rng(600 + i);
      refs.push_back(GenerateSynthetic(kLen, &rng));
      ASSERT_TRUE(ingest.Ingest("s" + std::to_string(i), refs.back()).ok());
    }
  }
  // 24 bytes per point for each of the four: the old per-session floor.
  copts.memory_budget_bytes = kSeries * 24 * kLen;
  Catalog catalog(&store, copts);
  auto query_all = [&](std::span<const QueryType> types) {
    for (size_t i = 0; i < kSeries; ++i) {
      auto session = catalog.Acquire("s" + std::to_string(i));
      ASSERT_TRUE(session.ok());
      Rng rng(700 + i);
      const auto q = ExtractQuery(refs[i], 5000, 128, 0.1, &rng);
      for (QueryType type : types) {
        ASSERT_TRUE((*session)->Query(q, {type, 3.0, 1.5, 2.0, 5}).ok());
      }
    }
  };
  const auto evicted = [&catalog] {
    ServiceStatsSnapshot snap;
    catalog.FillGauges(&snap);
    return snap.Value(Metric::kSeriesEvicted);
  };
  query_all(kRsmTypes);
  query_all(kRsmTypes);  // re-measures every session after its queries
  EXPECT_EQ(catalog.cached_sessions(), kSeries);
  EXPECT_LE(catalog.cached_bytes(), copts.memory_budget_bytes);
  EXPECT_EQ(evicted(), 0.0);

  query_all(kCnsmTypes);
  query_all(kCnsmTypes);
  EXPECT_GT(evicted(), 0.0);
  EXPECT_LT(catalog.cached_sessions(), kSeries);
  EXPECT_LE(catalog.cached_bytes(), copts.memory_budget_bytes);
}

}  // namespace
}  // namespace kvmatch
