// Tests for bench_util: exact ε calibration (including the ED-seeded DTW
// pass), flag parsing, workload construction, and the table printer and
// its JSON emitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "baseline/ucr_suite.h"
#include "bench_util/calibration.h"
#include "bench_util/workload.h"
#include "distance/simd/kernels.h"
#include "match/top_k.h"

namespace kvmatch {
namespace {

/// UCR Suite's answer at `eps`, sorted by (distance, offset).
std::vector<MatchResult> SortedAnswer(const Workload& w,
                                      std::span<const double> q,
                                      QueryParams params, double eps) {
  params.epsilon = eps;
  auto answer = UcrSuite(w.series, w.prefix).Match(q, params);
  std::sort(answer.begin(), answer.end(), MatchOrderLess);
  return answer;
}

TEST(CalibrationTest, HitsTargetForEd) {
  const Workload w = Workload::Make(30000, 401);
  Rng rng(402);
  const auto q = MakeQuery(w, 128, &rng);
  for (double fraction : {1e-3, 1e-2}) {
    QueryParams params{QueryType::kRsmEd, 0.0, 1.0, 0.0, 0};
    const double eps =
        EpsilonForSelectivity(w.series, w.prefix, q, params, fraction);
    const size_t k = TargetMatches(w.series.size(), 128, fraction);
    const auto at = SortedAnswer(w, q, params, eps);
    // Exactly k matches, apart from ties at ε; one ulp below, fewer.
    ASSERT_GE(at.size(), k) << "fraction=" << fraction;
    EXPECT_EQ(at[k - 1].distance, eps);
    EXPECT_EQ(at.back().distance, eps);
    EXPECT_LT(SortedAnswer(w, q, params, std::nextafter(eps, 0.0)).size(),
              k);
  }
}

TEST(CalibrationTest, EdSeededDtwEpsilonIsBitEqualToUnseeded) {
  // The unseeded reference: every window's DTW distance (ε = +∞), sorted.
  const Workload w = Workload::Make(12000, 403);
  Rng rng(404);
  const auto q = MakeQuery(w, 128, &rng);
  const double inf = std::numeric_limits<double>::infinity();
  for (QueryType type : {QueryType::kRsmDtw, QueryType::kCnsmDtw}) {
    const QueryParams params{type, 0.0, 1.5, 2.0, 6};
    const auto all = SortedAnswer(w, q, params, inf);
    ASSERT_GT(all.size(), 100u);
    for (double fraction : {0.0, 1e-3, 5e-3}) {
      const size_t k = TargetMatches(w.series.size(), 128, fraction);
      const double eps =
          EpsilonForSelectivity(w.series, w.prefix, q, params, fraction);
      EXPECT_EQ(std::bit_cast<uint64_t>(eps),
                std::bit_cast<uint64_t>(all[k - 1].distance))
          << "type " << static_cast<int>(type) << " k=" << k;
    }
  }
}

TEST(CalibrationTest, TargetMatchesRoundsAndClamps) {
  EXPECT_EQ(TargetMatches(1128, 128, 1e-3), 1u);   // 1.001 matches
  EXPECT_EQ(TargetMatches(1128, 128, 0.0), 1u);    // at least one
  EXPECT_EQ(TargetMatches(1128, 128, 2e-3), 2u);
  EXPECT_EQ(TargetMatches(1128, 128, 1.0), 1001u);
  EXPECT_EQ(TargetMatches(100, 128, 0.5), 0u);     // no window at all
}

TEST(BenchFlagsTest, ParsesAllFlags) {
  const char* argv[] = {"prog", "--n", "12345", "--runs", "7",
                        "--seed", "99", "--quick"};
  const BenchFlags flags =
      BenchFlags::Parse(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.n, 12345u);
  EXPECT_EQ(flags.runs, 7);
  EXPECT_EQ(flags.seed, 99u);
  EXPECT_TRUE(flags.quick);
  EXPECT_EQ(flags.bench, "prog");
  EXPECT_EQ(flags.args.size(), 7u);
}

TEST(BenchFlagsTest, BenchNameDropsDirectoryAndPrefix) {
  const char* argv[] = {"build/bench_table3_rsm_ed", "--json", "out.json"};
  const BenchFlags flags = BenchFlags::Parse(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.bench, "table3_rsm_ed");
  EXPECT_EQ(flags.json_out, "out.json");
  EXPECT_EQ(flags.args, (std::vector<std::string>{"--json", "out.json"}));
}

TEST(BenchFlagsTest, DefaultsWhenUnset) {
  const char* argv[] = {"prog"};
  const BenchFlags flags =
      BenchFlags::Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.n, 2'000'000u);
  EXPECT_EQ(flags.runs, 3);
  EXPECT_FALSE(flags.quick);
}

TEST(BenchFlagsTest, HarnessFlagsParseAlongsideCommonOnes) {
  const char* argv[] = {"bench_net_throughput", "--shards", "2", "--quick",
                        "--idle-connections", "1000", "--json", "x.json"};
  size_t shards = 0, idle = 0;
  const BenchFlags flags = BenchFlags::Parse(
      8, const_cast<char**>(argv),
      {{"--shards", &shards}, {"--idle-connections", &idle}});
  EXPECT_EQ(shards, 2u);
  EXPECT_EQ(idle, 1000u);
  EXPECT_TRUE(flags.quick);
  EXPECT_EQ(flags.json_out, "x.json");
}

/// Parse(argv) with `extra` = {"--shards", ...}; it exits on bad input.
void ParseOrExit(std::vector<const char*> argv) {
  size_t shards = 0;
  BenchFlags::Parse(static_cast<int>(argv.size()),
                    const_cast<char**>(argv.data()), {{"--shards", &shards}});
}

TEST(BenchFlagsDeathTest, TyposAndMissingValuesExitWithUsage) {
  const std::string usage = "usage: bench_demo \\[--n N\\]";
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--qiuck"}),
              ::testing::ExitedWithCode(2), "unknown flag --qiuck\n" + usage);
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--quick", "7"}),
              ::testing::ExitedWithCode(2), "unknown flag 7");
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--idle-connections", "5"}),
              ::testing::ExitedWithCode(2), "unknown flag");
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--n"}),
              ::testing::ExitedWithCode(2), "bad or missing value for --n");
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--json", "--quick"}),
              ::testing::ExitedWithCode(2), "missing value for --json");
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--runs", "3x"}),
              ::testing::ExitedWithCode(2), "missing value for --runs");
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--runs", "0"}),
              ::testing::ExitedWithCode(2), "missing value for --runs");
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--runs", "-1"}),
              ::testing::ExitedWithCode(2), "missing value for --runs");
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--shards", "two"}),
              ::testing::ExitedWithCode(2),
              "missing value for --shards\n" + usage + ".* \\[--shards N\\]");
}

TEST(BenchFlagsDeathTest, HelpExitsZero) {
  EXPECT_EXIT(ParseOrExit({"bench_demo", "--n", "10", "--help"}),
              ::testing::ExitedWithCode(0), "");
}

TEST(WorkloadTest, MakeQueryStaysInBounds) {
  const Workload w = Workload::Make(2000, 12);
  Rng rng(13);
  EXPECT_EQ(w.series.size(), 2000u);
  for (int t = 0; t < 50; ++t) {
    const auto q = MakeQuery(w, 500, &rng);
    EXPECT_EQ(q.size(), 500u);
  }
}

TEST(TablePrinterTest, FormattersAreStable) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0), "2.0");
  EXPECT_EQ(TablePrinter::FmtInt(1234567), "1234567");
}

TEST(TablePrinterTest, JsonHoldsEveryTableWithNumericCellsAsNumbers) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kvm_table_printer.json")
          .string();
  const char* argv[] = {"bench_demo", "--quick", "--json", path.c_str()};
  const BenchFlags flags = BenchFlags::Parse(4, const_cast<char**>(argv));
  TablePrinter a({"Selectivity", "Time (ms)", "Share"});
  a.AddRow({"10^-9", "3.50", "12.5%"});
  a.AddRow({"1.2e-04", "-", "007"});
  TablePrinter b({"Name \"q\""});
  b.AddRow({"back\\slash"});
  b.AddRow({});  // missing cells print, and emit, as empty strings
  ASSERT_TRUE(WriteJson(flags, {{"timing", &a}, {"", &b}}));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const std::string tier = simd::TierName(simd::ActiveTier());
  EXPECT_EQ(text.str(),
            "{\n  \"bench\": \"demo\",\n  \"dispatch_tier\": \"" + tier +
                "\",\n  \"flags\": {\"n\": 2000000, \"runs\": 3, "
                "\"seed\": 42, \"quick\": true, \"args\": [\"--quick\", "
                "\"--json\", \"" + path + "\"]},\n  \"tables\": [\n"
                "    {\"title\": \"timing\", \"rows\": [\n"
                "      {\"Selectivity\": \"10^-9\", \"Time (ms)\": 3.50, "
                "\"Share\": \"12.5%\"},\n"
                "      {\"Selectivity\": 1.2e-04, \"Time (ms)\": \"-\", "
                "\"Share\": \"007\"}]},\n"
                "    {\"title\": \"\", \"rows\": [\n"
                "      {\"Name \\\"q\\\"\": \"back\\\\slash\"},\n"
                "      {\"Name \\\"q\\\"\": \"\"}]}\n  ]\n}\n");
}

TEST(TablePrinterTest, JsonIsSkippedWithoutFlagAndFailsOnBadPath) {
  const char* argv[] = {"bench_demo", "--json", "/nonexistent-dir/x.json"};
  TablePrinter t({"a"});
  EXPECT_TRUE(WriteJson(
      BenchFlags::Parse(1, const_cast<char**>(argv)), {{"", &t}}));
  EXPECT_FALSE(WriteJson(
      BenchFlags::Parse(3, const_cast<char**>(argv)), {{"", &t}}));
}

TEST(StopwatchTest, MeasuresForwardTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sw.Ms(), 0.0);
  EXPECT_GE(sw.Seconds(), 0.0);
}

}  // namespace
}  // namespace kvmatch
