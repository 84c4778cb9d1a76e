// Tests for the one-pass top-k search (match/top_k.h): exactness against
// sorted brute force and against the threshold engine at the k-th
// distance, ties at the k-th distance, k above the eligible count,
// exclusion zones of 0, 1 and |Q|, bit-identical answers across slice
// sizes, threads and kernel tiers, equality with the ε-doubling loop it
// replaced (kept below as a reference), cancel and deadline mid-verify,
// and a single phase-1 pass when the constraints admit fewer than k
// windows. The parallel-slice cases share one live bound across pool
// workers, so this binary is a TSan and ASan+UBSan target.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/brute_force.h"
#include "common/rng.h"
#include "distance/simd/kernels.h"
#include "match/executor.h"
#include "match/top_k.h"
#include "matchdp/session.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "service/trace.h"
#include "storage/mem_kvstore.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

constexpr size_t kQueryLen = 150;

const QueryParams kTypes[] = {
    {QueryType::kRsmEd, 0.0, 1.0, 0.0, 0},
    {QueryType::kRsmDtw, 0.0, 1.0, 0.0, 6},
    {QueryType::kCnsmEd, 0.0, 1.5, 2.0, 0},
    {QueryType::kCnsmDtw, 0.0, 1.5, 2.0, 6},
    {QueryType::kRsmL1, 0.0, 1.0, 0.0, 0},
};

const char* Name(QueryType type) {
  switch (type) {
    case QueryType::kRsmEd: return "rsm-ed";
    case QueryType::kRsmDtw: return "rsm-dtw";
    case QueryType::kCnsmEd: return "cnsm-ed";
    case QueryType::kCnsmDtw: return "cnsm-dtw";
    case QueryType::kRsmL1: return "rsm-l1";
  }
  return "?";
}

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

// ---- The ε-doubling loop the one-pass search replaced (reference) ----

std::vector<MatchResult> ApplyExclusion(std::vector<MatchResult> sorted,
                                        size_t zone) {
  if (zone == 0) return sorted;
  std::vector<MatchResult> kept;
  for (const auto& r : sorted) {
    bool blocked = false;
    for (const auto& other : kept) {
      const size_t delta = r.offset > other.offset ? r.offset - other.offset
                                                   : other.offset - r.offset;
      if (delta < zone) {
        blocked = true;
        break;
      }
    }
    if (!blocked) kept.push_back(r);
  }
  return kept;
}

/// ε-match at ε = 0.5, 1, 2, 4, … for up to 40 rounds until the filtered
/// answer holds k; the best seen when the rounds run out.
Result<std::vector<MatchResult>> GrowthLoopTopK(
    const std::function<Result<std::vector<MatchResult>>(double)>& match_fn,
    size_t k, size_t zone) {
  if (k == 0) return std::vector<MatchResult>{};
  double epsilon = 0.5;
  std::vector<MatchResult> last;
  for (int round = 0; round < 40; ++round) {
    auto results = match_fn(epsilon);
    if (!results.ok()) return results.status();
    std::vector<MatchResult> sorted = std::move(results).value();
    std::sort(sorted.begin(), sorted.end(), MatchOrderLess);
    sorted = ApplyExclusion(std::move(sorted), zone);
    if (sorted.size() >= k) {
      sorted.resize(k);
      return sorted;
    }
    last = std::move(sorted);
    epsilon *= 2.0;
  }
  return last;
}

// ---- Brute-force reference ----

/// Every eligible window, sorted under MatchOrderLess.
std::vector<MatchResult> AllSorted(const TimeSeries& x,
                                   std::span<const double> q,
                                   QueryParams params) {
  params.epsilon = std::numeric_limits<double>::max();
  auto all = BruteForceMatch(x, q, params);
  std::sort(all.begin(), all.end(), MatchOrderLess);
  return all;
}

std::vector<MatchResult> BruteTopK(const std::vector<MatchResult>& all,
                                   size_t k, size_t zone) {
  auto top = ApplyExclusion(all, zone);
  if (top.size() > k) top.resize(k);
  return top;
}

/// `got` is the exact answer: as many results as the reference, the same
/// distances in the same order (within the suite's 1e-6), each returned
/// offset an eligible window at its distance, no two within the zone.
void ExpectExactTopK(const std::vector<MatchResult>& got,
                     const std::vector<MatchResult>& all, size_t k,
                     size_t zone, const std::string& label) {
  const auto want = BruteTopK(all, k, zone);
  ASSERT_EQ(got.size(), want.size()) << label;
  std::map<size_t, double> eligible;
  for (const auto& m : all) eligible[m.offset] = m.distance;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, want[i].distance, 1e-6) << label << " i=" << i;
    auto it = eligible.find(got[i].offset);
    ASSERT_NE(it, eligible.end()) << label << " offset " << got[i].offset;
    EXPECT_NEAR(it->second, got[i].distance, 1e-6) << label;
    if (i > 0) {
      EXPECT_FALSE(MatchOrderLess(got[i], got[i - 1])) << label;
    }
    for (size_t j = 0; j < i && zone > 1; ++j) {
      const size_t delta = got[i].offset > got[j].offset
                               ? got[i].offset - got[j].offset
                               : got[j].offset - got[i].offset;
      EXPECT_GE(delta, zone) << label;
    }
  }
}

void ExpectBitIdentical(const std::vector<MatchResult>& got,
                        const std::vector<MatchResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].offset, want[i].offset) << label << " i=" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].distance),
              std::bit_cast<uint64_t>(want[i].distance))
        << label << " i=" << i;
  }
}

struct Fixture {
  TimeSeries x;
  std::unique_ptr<Session> session;
  std::vector<double> q;

  explicit Fixture(size_t n = 3000, uint64_t seed = 310) {
    Rng rng(seed);
    x = GenerateSynthetic(n, &rng);
    auto made = Session::FromSeries(x, SmallOptions());
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    session = std::move(made).value();
    q = ExtractQuery(x, n / 3, kQueryLen, 0.3, &rng);
  }
};

/// The one-pass search driven by hand: slices of `slice_positions`,
/// verified last to first so the bound tightens in another order.
std::vector<MatchResult> ManualTopK(const Session& session,
                                    std::span<const double> q,
                                    const QueryParams& params, size_t k,
                                    size_t zone, size_t slice_positions,
                                    const MatchOptions& options = {}) {
  auto executor = session.MakeExecutor(q, params, options);
  EXPECT_TRUE(executor.ok());
  EXPECT_TRUE((*executor)->StartTopK(k, {.exclusion_zone = zone}).ok());
  EXPECT_TRUE((*executor)->RunPhase1().ok());
  const size_t slices = (*executor)->SliceCandidates(slice_positions);
  std::vector<MatchResult> kept;
  for (size_t i = slices; i-- > 0;) {
    auto part = (*executor)->VerifySlice(i);
    EXPECT_TRUE(part.ok());
    kept.insert(kept.end(), part->begin(), part->end());
  }
  return (*executor)->FinishTopK(std::move(kept));
}

// ---------------------------------------------------------------- units

TEST(TopKCapacityTest, IsKTimesTwoZMinusOneSaturatedAtTheWindowCount) {
  EXPECT_EQ(TopKCapacity(10, 0, 1000), 10u);
  EXPECT_EQ(TopKCapacity(10, 1, 1000), 10u);
  EXPECT_EQ(TopKCapacity(10, 5, 1000), 90u);
  EXPECT_EQ(TopKCapacity(10, 150, 1000), 1000u);
  EXPECT_EQ(TopKCapacity(0, 5, 1000), 0u);
  EXPECT_EQ(TopKCapacity(3, 5, 0), 0u);
  // Wire-supplied k and zone cannot overflow the product.
  const size_t huge = std::numeric_limits<size_t>::max();
  EXPECT_EQ(TopKCapacity(huge, 2, 1000), 1000u);
  EXPECT_EQ(TopKCapacity(3, huge, 1000), 1000u);
  EXPECT_EQ(TopKCapacity(huge, huge, 1000), 1000u);
}

TEST(TopKHeapTest, PublishesOnlyWhenFullAndKeepsTiesOnSmallerOffsets) {
  SharedBound bound;
  TopKHeap heap(3, &bound);
  const double inf = std::numeric_limits<double>::infinity();
  heap.Offer({40, 1.0});
  heap.Offer({10, 5.0});
  EXPECT_EQ(heap.Bound(), inf);  // two of three: no bound yet
  heap.Offer({30, 3.0});
  EXPECT_EQ(heap.Bound(), 5.0);
  heap.Offer({50, 5.0});  // ties the top on a larger offset: stays out
  heap.Offer({5, 5.0});   // ties it on a smaller offset: replaces it
  EXPECT_EQ(heap.Bound(), 5.0);
  auto kept = heap.Take();
  std::sort(kept.begin(), kept.end(), MatchOrderLess);
  const std::vector<MatchResult> want = {{40, 1.0}, {30, 3.0}, {5, 5.0}};
  EXPECT_EQ(kept, want);

  // A closer match lowers the bound; another slice's looser heap never
  // raises it.
  TopKHeap again(3, &bound);
  for (const MatchResult& m : want) again.Offer(m);
  again.Offer({20, 2.0});
  EXPECT_EQ(bound.Load(), 3.0);
  TopKHeap other(1, &bound);
  other.Offer({7, 9.0});
  EXPECT_EQ(bound.Load(), 3.0);
}

TEST(TopKSelectTest, KeepsTheCapacityPrefixThenFiltersThenCuts) {
  // Zone 2: each kept match blocks its two neighbours.
  std::vector<MatchResult> c = {{11, 0.5}, {10, 0.1}, {12, 0.2},
                                {30, 0.9}, {31, 0.3}, {50, 0.95}};
  const auto top = SelectTopK(c, 2, 2);
  const std::vector<MatchResult> want = {{10, 0.1}, {12, 0.2}};
  EXPECT_EQ(top, want);
  const auto top3 = SelectTopK(c, 3, 2);
  const std::vector<MatchResult> want3 = {{10, 0.1}, {12, 0.2}, {31, 0.3}};
  EXPECT_EQ(top3, want3);
  EXPECT_TRUE(SelectTopK(c, 0, 0).empty());
}

// ---------------------------------------------------------------- exactness

TEST(TopKTest, MatchesSortedBruteForceForEveryTypeAndZone) {
  Fixture f;
  for (const QueryParams& params : kTypes) {
    const auto all = AllSorted(f.x, f.q, params);
    ASSERT_GT(all.size(), 30u) << Name(params.type);
    for (size_t zone : {size_t{0}, size_t{1}, kQueryLen}) {
      for (size_t k : {1u, 7u, 25u}) {
        const std::string label = std::string(Name(params.type)) +
                                  " zone=" + std::to_string(zone) +
                                  " k=" + std::to_string(k);
        MatchStats stats;
        auto got = f.session->QueryTopK(f.q, params, k,
                                        {.exclusion_zone = zone}, &stats);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        ExpectExactTopK(*got, all, k, zone, label);
        EXPECT_GT(stats.candidate_positions, 0u) << label;
        if (zone > 1) continue;
        // The threshold engine at ε = d_k returns every window within
        // d_k, ties included; its first k under the total order are the
        // answer, bit for bit.
        QueryParams at_dk = params;
        at_dk.epsilon = got->back().distance;
        auto within = f.session->Query(f.q, at_dk);
        ASSERT_TRUE(within.ok()) << label;
        std::sort(within->begin(), within->end(), MatchOrderLess);
        ASSERT_GE(within->size(), k) << label;
        within->resize(k);
        ExpectBitIdentical(*got, *within, label + " vs threshold at d_k");
      }
    }
  }
}

TEST(TopKTest, TiesAtTheKthDistanceResolveBySmallerOffset) {
  // Five exact copies of one 600-point block: a window and its copies
  // 600 apart have bit-identical raw distances, so every RSM distance
  // comes in groups of (at least) four or five equal values.
  Rng rng(4242);
  const TimeSeries block = GenerateSynthetic(600, &rng);
  std::vector<double> values;
  for (int copy = 0; copy < 5; ++copy) {
    values.insert(values.end(), block.values().begin(), block.values().end());
  }
  const TimeSeries x(std::move(values));
  auto session = Session::FromSeries(x, SmallOptions());
  ASSERT_TRUE(session.ok());
  const auto q = ExtractQuery(x, 700, kQueryLen, 0.2, &rng);
  for (const QueryParams& params : {kTypes[0], kTypes[1], kTypes[4]}) {
    const auto all = AllSorted(x, q, params);
    // k = 3 cuts through the best tie group.
    ASSERT_EQ(all[0].distance, all[2].distance) << Name(params.type);
    ASSERT_EQ(all[2].distance, all[3].distance) << Name(params.type);
    for (size_t k : {2u, 3u, 7u}) {
      auto got = (*session)->QueryTopK(q, params, k);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ((*got)[i].offset, all[i].offset)
            << Name(params.type) << " k=" << k << " i=" << i;
      }
      for (size_t slice : {1u, 7u}) {
        ExpectBitIdentical(
            ManualTopK(**session, q, params, k, 0, slice), *got,
            std::string(Name(params.type)) + " slice=" + std::to_string(slice));
      }
    }
  }
}

TEST(TopKTest, KAboveTheEligibleCountReturnsEveryEligibleWindow) {
  // 251 windows in all; for cNSM the constraints admit fewer still.
  Fixture f(400, 77);
  for (const QueryParams& params : kTypes) {
    const auto all = AllSorted(f.x, f.q, params);
    for (size_t zone : {size_t{0}, kQueryLen}) {
      const std::string label = std::string(Name(params.type)) +
                                " zone=" + std::to_string(zone);
      auto got = f.session->QueryTopK(f.q, params, 1000,
                                      {.exclusion_zone = zone});
      ASSERT_TRUE(got.ok()) << label;
      ExpectExactTopK(*got, all, 1000, zone, label);
      if (zone == 0) {
        EXPECT_EQ(got->size(), all.size()) << label;
      }
    }
  }
}

TEST(TopKTest, EqualsTheGrowthLoopWhereverItFillsK) {
  Fixture f(4000, 911);
  size_t compared = 0;
  for (const QueryParams& params : kTypes) {
    for (size_t zone : {size_t{0}, size_t{1}, kQueryLen}) {
      for (size_t k : {1u, 10u}) {
        const std::string label = std::string(Name(params.type)) +
                                  " zone=" + std::to_string(zone) +
                                  " k=" + std::to_string(k);
        auto reference = GrowthLoopTopK(
            [&](double eps) {
              QueryParams p = params;
              p.epsilon = eps;
              return f.session->Query(f.q, p);
            },
            k, zone);
        ASSERT_TRUE(reference.ok()) << label;
        if (reference->size() < k) continue;
        auto got = f.session->QueryTopK(f.q, params, k,
                                        {.exclusion_zone = zone});
        ASSERT_TRUE(got.ok()) << label;
        ExpectBitIdentical(*got, *reference, label);
        compared += 1;
      }
    }
  }
  // Every case but a few wide-zone ones, where 40 doublings cannot reach
  // k non-overlapping matches, is compared.
  EXPECT_GE(compared, 24u);
}

TEST(TopKTest, BitIdenticalAcrossSliceSizesThreadsAndKernelTiers) {
  Fixture f(5000, 1234);
  MemKvStore store;
  Catalog::Options copts;
  copts.session = SmallOptions();
  Catalog catalog(&store, copts);
  ASSERT_TRUE(catalog.Ingest("s", f.x).ok());
  QueryService::Options sopts;
  sopts.num_threads = 4;
  sopts.verify_slice_positions = 7;
  QueryService service(&catalog, sopts);

  MatchOptions scalar;
  scalar.verify.kernels = &simd::ScalarKernels();
  for (const QueryParams& params : kTypes) {
    for (size_t zone : {size_t{0}, kQueryLen}) {
      const std::string label = std::string(Name(params.type)) +
                                " zone=" + std::to_string(zone);
      auto want = f.session->QueryTopK(f.q, params, 10,
                                       {.exclusion_zone = zone});
      ASSERT_TRUE(want.ok()) << label;
      ASSERT_EQ(want->size(), 10u) << label;
      for (size_t slice : {1u, 7u, 2048u}) {
        ExpectBitIdentical(
            ManualTopK(*f.session, f.q, params, 10, zone, slice), *want,
            label + " slice=" + std::to_string(slice));
      }
      ExpectBitIdentical(
          ManualTopK(*f.session, f.q, params, 10, zone, 64, scalar), *want,
          label + " scalar tier");

      QueryRequest req;
      req.series = "s";
      req.query = f.q;
      req.params = params;
      req.top_k = 10;
      req.topk_options.exclusion_zone = zone;
      const QueryResponse served = service.Submit(req).get();
      ASSERT_TRUE(served.status.ok()) << label;
      ExpectBitIdentical(served.matches, *want, label + " service");
    }
  }
}

// ---------------------------------------------------------------- served

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
    EXPECT_TRUE(catalog->Ingest("s", reference).ok());
  }
};

size_t CountSpans(const QueryTrace& trace, const char* name) {
  size_t n = 0;
  for (const auto& span : trace.spans()) n += span.name == name;
  return n;
}

TEST(TopKServiceTest, ResponseCarriesStatsAndOneProbeSpan) {
  ServiceFixture fx(20'000);
  QueryService::Options opts;
  opts.num_threads = 4;
  opts.verify_slice_positions = 256;
  QueryService service(fx.catalog.get(), opts);
  QueryRequest req;
  req.series = "s";
  req.reference = QueryRequest::Window{5000, 256};
  req.params = {QueryType::kRsmEd, 3.0, 1.0, 0.0, 0};
  req.top_k = 10;
  req.collect_trace = true;
  const QueryResponse response = service.Submit(req).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.matches.size(), 10u);
  // The query's own window leads at distance 0.
  EXPECT_EQ(response.matches[0].offset, 5000u);
  EXPECT_EQ(response.matches[0].distance, 0.0);
  EXPECT_GT(response.stats.candidate_positions, 0u);
  EXPECT_GT(response.stats.distance_calls, 0u);
  EXPECT_GT(response.stats.probe.index_accesses, 0u);
  ASSERT_NE(response.trace, nullptr);
  EXPECT_EQ(CountSpans(*response.trace, kSpanSeed), 1u);
  EXPECT_EQ(CountSpans(*response.trace, kSpanProbe), 1u);
  EXPECT_GE(CountSpans(*response.trace, kSpanVerify), 1u);
}

TEST(TopKServiceTest, FewerEligibleThanKRunsOnePhase1Pass) {
  // α = 1.01, β = 0.01 admit only windows of nearly Q's own mean and σ:
  // fewer than k. The ε-doubling loop ran all 40 rounds here; one pass
  // must probe once, at the unbounded ε, and return every eligible window.
  ServiceFixture fx(20'000);
  QueryService::Options opts;
  opts.num_threads = 4;
  opts.verify_slice_positions = 512;
  QueryService service(fx.catalog.get(), opts);
  const QueryParams params{QueryType::kCnsmEd, 3.0, 1.01, 0.01, 0};
  const size_t k = 200;
  QueryRequest req;
  req.series = "s";
  req.reference = QueryRequest::Window{7000, 200};
  req.params = params;
  req.top_k = k;
  req.collect_trace = true;
  const QueryResponse response = service.Submit(req).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  const auto all = AllSorted(fx.reference,
                             fx.reference.Subsequence(7000, 200), params);
  ASSERT_GE(all.size(), 1u);
  ASSERT_LT(all.size(), k);
  ExpectExactTopK(response.matches, all, k, 0, "alpha=1.01 beta=0.01");
  ASSERT_NE(response.trace, nullptr);
  EXPECT_EQ(CountSpans(*response.trace, kSpanProbe), 1u);
  EXPECT_EQ(CountSpans(*response.trace, kSpanSeed), 1u);
  // One pass verifies each window at most once: seeds plus the probe's
  // candidates never exceed the series' windows.
  EXPECT_LE(response.stats.candidate_positions,
            fx.reference.size() - 200 + 1);
}

/// A top-k request whose verify cannot finish quickly: an exclusion zone
/// as long as the series makes N cover every window, so no bound ever
/// prunes, and loose cNSM-DTW bounds run the banded DP on each of them.
QueryRequest HeavyTopK(const TimeSeries& series) {
  Rng rng(909);
  QueryRequest req;
  req.series = "s";
  req.query = ExtractQuery(series, series.size() / 2, 512, 0.3, &rng);
  req.params = {QueryType::kCnsmDtw, 0.0, 1e6, 1e6, 32};
  req.top_k = 5;
  req.topk_options.exclusion_zone = series.size();
  return req;
}

TEST(TopKServiceTest, DeadlineAbortsTopKMidVerify) {
  ServiceFixture fx(60'000);
  QueryService::Options opts;
  opts.num_threads = 1;
  QueryService service(fx.catalog.get(), opts);
  QueryRequest req = HeavyTopK(fx.reference);
  req.timeout_ms = 300.0;
  const QueryResponse response = service.Submit(req).get();
  ASSERT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_TRUE(response.matches.empty());
  // The probe finished and verification was under way.
  EXPECT_GT(response.stats.candidate_positions, 0u);
  EXPECT_GT(response.stats.distance_calls, 0u);
  EXPECT_EQ(service.Stats().Value(Metric::kDeadlineAbortedRunning), 1u);
}

TEST(TopKServiceTest, CancelAbortsTopKMidVerify) {
  ServiceFixture fx(60'000);
  QueryService::Options opts;
  opts.num_threads = 2;
  QueryService service(fx.catalog.get(), opts);
  std::promise<QueryResponse> delivered;
  const uint64_t id = service.SubmitWithCallback(
      HeavyTopK(fx.reference),
      [&](QueryResponse response) {
        delivered.set_value(std::move(response));
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(service.Cancel(id).ok());
  const QueryResponse response = delivered.get_future().get();
  ASSERT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  EXPECT_TRUE(response.matches.empty());
  EXPECT_EQ(service.Stats().Value(Metric::kCancelled), 1u);
}

TEST(TopKTest, CancelledSeedStopsAndReportsItsWork) {
  Fixture f;
  auto executor = f.session->MakeExecutor(f.q, kTypes[1]);
  ASSERT_TRUE(executor.ok());
  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  const Status st = (*executor)->StartTopK(5, {}, ctx);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_FALSE((*executor)->StartTopK(5, {}).ok());  // at most once
}

// ---------------------------------------------------------------- API

TEST(TopKTest, KZeroIsEmptyAndErrorsPropagate) {
  Fixture f;
  auto none = f.session->QueryTopK(f.q, kTypes[0], 0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // |Q| below the smallest index window.
  const std::vector<double> tiny(10, 1.0);
  EXPECT_FALSE(f.session->QueryTopK(tiny, kTypes[0], 3).ok());
}

TEST(TopKTest, CnsmTopKRespectsConstraints) {
  Fixture f(6000, 310);
  const QueryParams params{QueryType::kCnsmEd, 0.0, 1.3, 2.0, 0};
  auto got = f.session->QueryTopK(f.q, params, 10);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 10u);
  const MeanStd q_ms = ComputeMeanStd(f.q);
  const PrefixStats ps(f.x);
  for (const auto& r : *got) {
    const MeanStd ms = ps.WindowMeanStd(r.offset, f.q.size());
    EXPECT_LE(std::fabs(ms.mean - q_ms.mean), 2.0 + 1e-9);
    EXPECT_GE(ms.std, q_ms.std / 1.3 - 1e-9);
    EXPECT_LE(ms.std, q_ms.std * 1.3 + 1e-9);
  }
}

}  // namespace
}  // namespace kvmatch
