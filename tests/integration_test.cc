// End-to-end integration: build index set -> persist to a store ->
// reopen -> match through the store-backed path; plus cross-matcher
// agreement sweeps on realistic workloads and calibration sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "baseline/brute_force.h"
#include "baseline/ucr_suite.h"
#include "bench_util/calibration.h"
#include "bench_util/workload.h"
#include "common/rng.h"
#include "index/index_builder.h"
#include "match/top_k.h"
#include "match/kv_match.h"
#include "matchdp/kv_match_dp.h"
#include "storage/file_kvstore.h"
#include "storage/minikv.h"
#include "ts/io.h"

namespace kvmatch {
namespace {

namespace fs = std::filesystem;

TEST(IntegrationTest, FullPipelineOverFileStore) {
  // 1. Generate data, write it to the binary data file (as the paper's
  //    local-file deployment does).
  Rng rng(81);
  const TimeSeries x = GenerateUcrLike(20000, &rng);
  const std::string data_path =
      (fs::temp_directory_path() / "kvm_e2e_data.bin").string();
  ASSERT_TRUE(WriteBinary(x, data_path).ok());

  // 2. Build the KV-matchDP index set and persist all levels into one
  //    FileKvStore.
  const std::string index_path =
      (fs::temp_directory_path() / "kvm_e2e_index.kvm").string();
  std::remove(index_path.c_str());
  {
    auto store = FileKvStore::Open(index_path);
    ASSERT_TRUE(store.ok());
    const auto set = BuildIndexSet(x, 25, 3);
    for (const auto& index : set) {
      ASSERT_TRUE(
          index
              .Persist(store->get(), "w" + std::to_string(index.window()) + "/")
              .ok());
    }
  }

  // 3. Reopen everything cold: data from disk, indexes from the store.
  auto data = ReadBinary(data_path);
  ASSERT_TRUE(data.ok());
  PrefixStats ps(*data);
  auto store = FileKvStore::Open(index_path);
  ASSERT_TRUE(store.ok());
  std::vector<KvIndex> indexes;
  for (size_t w : {25u, 50u, 100u}) {
    auto idx = KvIndex::Open(store->get(), "w" + std::to_string(w) + "/");
    ASSERT_TRUE(idx.ok());
    indexes.push_back(std::move(idx).value());
  }
  std::vector<const KvIndex*> ptrs;
  for (const auto& index : indexes) ptrs.push_back(&index);

  // 4. Query through the store-backed path; compare with brute force.
  const KvMatchDp matcher(*data, ps, ptrs);
  Rng qrng(82);
  for (QueryType type : {QueryType::kRsmEd, QueryType::kCnsmEd,
                         QueryType::kCnsmDtw}) {
    const auto q = ExtractQuery(*data, 5000, 200, 0.2, &qrng);
    QueryParams params{type, 4.0, 1.5, 3.0, 5};
    const auto expected = BruteForceMatch(*data, q, params);
    MatchStats stats;
    auto got = matcher.Match(q, params, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), expected.size());
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].offset, expected[i].offset);
    }
    EXPECT_GT(stats.probe.bytes_fetched, 0u)
        << "store-backed probe should read bytes";
  }

  std::remove(data_path.c_str());
  std::remove(index_path.c_str());
}

TEST(IntegrationTest, MiniKvBackedIndexMatchesInMemory) {
  Rng rng(83);
  const TimeSeries x = GenerateSynthetic(15000, &rng);
  PrefixStats ps(x);
  const KvIndex mem_index = BuildKvIndex(x, {.window = 50});

  const std::string dir =
      (fs::temp_directory_path() / "kvm_e2e_minikv").string();
  fs::remove_all(dir);
  auto kv = MiniKv::Open(dir);
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE(mem_index.Persist(kv->get(), "").ok());
  // Exercise the LSM path: compact and reopen.
  ASSERT_TRUE((*kv)->Compact().ok());
  auto stored_index = KvIndex::Open(kv->get(), "");
  ASSERT_TRUE(stored_index.ok());

  const KvMatcher mem_matcher(x, ps, mem_index);
  const KvMatcher kv_matcher(x, ps, *stored_index);
  Rng qrng(84);
  const auto q = ExtractQuery(x, 3000, 150, 0.2, &qrng);
  QueryParams params{QueryType::kCnsmEd, 3.0, 1.5, 3.0, 0};
  auto a = mem_matcher.Match(q, params);
  auto b = kv_matcher.Match(q, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].offset, (*b)[i].offset);
  }
  fs::remove_all(dir);
}

TEST(IntegrationTest, AllMatchersAgreeOnUcrLikeWorkload) {
  const Workload w = Workload::Make(10000, 85);
  const auto set = BuildIndexSet(w.series, 25, 3);
  std::vector<const KvIndex*> ptrs;
  for (const auto& index : set) ptrs.push_back(&index);
  const KvMatcher basic(w.series, w.prefix, set[1]);  // w = 50
  const KvMatchDp dp(w.series, w.prefix, ptrs);
  const UcrSuite ucr(w.series, w.prefix);

  Rng rng(86);
  for (int trial = 0; trial < 4; ++trial) {
    const auto q = MakeQuery(w, 200, &rng);
    QueryParams params{QueryType::kCnsmEd, 3.0, 1.5, 2.0, 0};
    const auto truth = BruteForceMatch(w.series, q, params);
    auto a = basic.Match(q, params);
    auto b = dp.Match(q, params);
    const auto c = ucr.Match(q, params);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->size(), truth.size());
    EXPECT_EQ(b->size(), truth.size());
    EXPECT_EQ(c.size(), truth.size());
  }
}

TEST(IntegrationTest, CalibrationHitsTargetCount) {
  // A level-shifted series of 1M points: the level jumps every 50k points,
  // so windows far from a query's level still exist for RSM and fail β
  // for cNSM.
  Rng rng(87);
  std::vector<double> values = GenerateUcrLike(1'000'000, &rng).values();
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] += 10.0 * static_cast<double>((i / 50'000) % 4);
  }
  const TimeSeries series(std::move(values));
  const PrefixStats prefix(series);
  const size_t m = 128;
  const auto q = ExtractQuery(series, 412'345, m, 0.05, &rng);
  const UcrSuite ucr(series, prefix);
  for (QueryType type : {QueryType::kRsmEd, QueryType::kRsmDtw,
                         QueryType::kCnsmEd, QueryType::kCnsmDtw}) {
    for (double fraction : {1e-5, 1e-3}) {
      QueryParams params{type, 0.0, 1.5, 5.0, IsDtw(type) ? size_t{6} : 0};
      params.epsilon =
          EpsilonForSelectivity(series, prefix, q, params, fraction);
      auto answer = ucr.Match(q, params);
      std::sort(answer.begin(), answer.end(), MatchOrderLess);
      // Exactly k UCR Suite matches, apart from ties at ε: every match
      // past the k-th has distance ε.
      const size_t k = TargetMatches(series.size(), m, fraction);
      ASSERT_GE(answer.size(), k)
          << "type " << static_cast<int>(type) << " fraction " << fraction;
      for (size_t i = k - 1; i < answer.size(); ++i) {
        EXPECT_EQ(answer[i].distance, params.epsilon)
            << "type " << static_cast<int>(type) << " match " << i;
      }
    }
  }
}

TEST(IntegrationTest, Example1Phenomenon) {
  // Reproduces the paper's motivating Example 1 qualitatively: activities
  // with the same normalized shape but different levels collide under NSM
  // (β = ∞) and separate under cNSM (small β). Blocks share one waveform
  // shifted/scaled per activity, so normalization erases the difference.
  Rng rng(89);
  std::vector<double> data;
  std::vector<std::pair<size_t, int>> blocks;  // (offset, activity)
  for (int rep = 0; rep < 10; ++rep) {
    for (int act = 0; act < 4; ++act) {
      blocks.emplace_back(data.size(), act);
      std::vector<double> block(400);
      const double level = 3.0 * act - 4.0;      // offset per activity
      const double amp = 0.5 + 0.25 * act;       // scaling per activity
      for (size_t i = 0; i < block.size(); ++i) {
        block[i] = level +
                   amp * std::sin(2.0 * M_PI * 0.02 *
                                  static_cast<double>(i)) +
                   rng.Gaussian(0.0, 0.02);
      }
      data.insert(data.end(), block.begin(), block.end());
    }
  }
  const TimeSeries x{std::move(data)};
  PrefixStats ps(x);
  const UcrSuite ucr(x, ps);

  // Query: one block of activity 1.
  const auto q = ExtractQuery(x, blocks[1].first + 20, 256, 0.0, &rng);

  // NSM-like: huge β, generous α — finds blocks of several activities.
  QueryParams loose{QueryType::kCnsmEd, 10.0, 100.0, 1000.0, 0};
  const auto all = ucr.Match(q, loose);
  // cNSM: tight mean constraint — only activity-1 blocks remain.
  QueryParams tight{QueryType::kCnsmEd, 10.0, 100.0, 0.5, 0};
  const auto constrained = ucr.Match(q, tight);

  ASSERT_FALSE(constrained.empty());
  EXPECT_GT(all.size(), constrained.size());
  // Every constrained match must lie in an activity-1 block.
  const double q_mean = Mean(std::span<const double>(q));
  for (const auto& match : constrained) {
    const double mean = ps.WindowMean(match.offset, 256);
    EXPECT_LE(std::fabs(mean - q_mean), 0.5 + 1e-9);
  }
}

}  // namespace
}  // namespace kvmatch
