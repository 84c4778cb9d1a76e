// google-benchmark micro suite: the hot kernels behind the headline
// numbers — distances, lower bounds, envelope, interval algebra, index
// build/probe and storage block/SSTable paths, plus the dispatch-tier
// comparison benches for the SIMD verify kernels (BM_Simd*<scalar> vs
// BM_Simd*<avx2> on the same inputs).
//
//   ./bench_micro_kernels [gbench flags] [--json OUT]
//
// --json writes {name, ns_per_op, bytes_per_s, tier} rows for tracking
// perf trajectory across PRs (BENCH_micro_kernels.json).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "distance/dtw.h"
#include "distance/ed.h"
#include "distance/envelope.h"
#include "distance/simd/kernels.h"
#include "index/index_builder.h"
#include "storage/block.h"
#include "storage/sstable.h"
#include "ts/generator.h"
#include "ts/stats_oracle.h"

namespace kvmatch {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Uniform(-5, 5);
  return v;
}

void BM_EuclideanDistance(benchmark::State& state) {
  const auto a = RandomSeries(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomSeries(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EuclideanDistance(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EuclideanDistance)->Arg(128)->Arg(1024)->Arg(8192);

void BM_DtwBanded(benchmark::State& state) {
  const size_t m = 512;
  const auto a = RandomSeries(m, 1);
  const auto b = RandomSeries(m, 2);
  const size_t rho = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(a, b, rho));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(5)->Arg(25)->Arg(100);

void BM_Envelope(benchmark::State& state) {
  const auto q = RandomSeries(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEnvelope(q, q.size() / 20));
  }
}
BENCHMARK(BM_Envelope)->Arg(512)->Arg(8192);

void BM_IntervalIntersect(benchmark::State& state) {
  Rng rng(6);
  IntervalList a, b;
  int64_t pa = 0, pb = 0;
  for (int i = 0; i < state.range(0); ++i) {
    pa += rng.UniformInt(2, 20);
    a.AppendInterval({pa, pa + rng.UniformInt(0, 10)});
    pa = a.intervals().back().r;
    pb += rng.UniformInt(2, 20);
    b.AppendInterval({pb, pb + rng.UniformInt(0, 10)});
    pb = b.intervals().back().r;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalList::Intersect(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalIntersect)->Arg(1000)->Arg(100000);

void BM_IndexBuild(benchmark::State& state) {
  Rng rng(7);
  const TimeSeries x = GenerateUcrLike(static_cast<size_t>(state.range(0)),
                                       &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildKvIndex(x, {.window = 50}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexBuild)->Arg(100000)->Arg(1000000)->Unit(
    benchmark::kMillisecond);

void BM_IndexProbe(benchmark::State& state) {
  Rng rng(8);
  const TimeSeries x = GenerateUcrLike(500'000, &rng);
  const KvIndex index = BuildKvIndex(x, {.window = 50});
  const MinMax mm = ComputeMinMax(x.values());
  double lo = mm.min;
  for (auto _ : state) {
    lo += 0.37;
    if (lo > mm.max - 1.5) lo = mm.min;
    benchmark::DoNotOptimize(index.ProbeRange(lo, lo + 1.0));
  }
}
BENCHMARK(BM_IndexProbe);

void BM_PrefixStatsWindow(benchmark::State& state) {
  Rng rng(9);
  const TimeSeries x = GenerateSynthetic(1'000'000, &rng);
  const PrefixStats ps(x);
  size_t off = 0;
  for (auto _ : state) {
    off = (off + 997) % (x.size() - 512);
    benchmark::DoNotOptimize(ps.WindowMeanStd(off, 512));
  }
}
BENCHMARK(BM_PrefixStatsWindow);

void BM_BlockBuildParse(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    entries.emplace_back(key, std::string(32, 'v'));
  }
  for (auto _ : state) {
    BlockBuilder builder(16);
    for (const auto& [k, v] : entries) builder.Add(k, v);
    auto block = BlockReader::Parse(builder.Finish());
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BlockBuildParse);

void BM_SstableScan(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kvm_bench.sst").string();
  {
    SstableBuilder builder(path, 4096);
    for (int i = 0; i < 50'000; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%08d", i);
      builder.Add(key, std::string(16, 'v')).ok();
    }
    builder.Finish().ok();
  }
  auto reader = SstableReader::Open(path);
  for (auto _ : state) {
    size_t count = 0;
    for (auto it = (*reader)->Scan("key00010000", "key00020000");
         it->Valid(); it->Next()) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
  std::remove(path.c_str());
}
BENCHMARK(BM_SstableScan);

// ---- Dispatch-tier comparison benches for the SIMD verify kernels ----
//
// Registered once per available tier so one run shows the scalar baseline
// and the AVX2 speedup side by side on identical inputs. Thresholds are
// +inf: these measure full-kernel throughput, not abandon luck.

constexpr double kNoAbandon = std::numeric_limits<double>::infinity();

void RegisterSimdKernelBenches() {
  struct TierEntry {
    const char* name;
    const simd::Kernels* ker;
  };
  std::vector<TierEntry> tiers = {{"scalar", &simd::ScalarKernels()}};
  if (const simd::Kernels* avx2 = simd::Avx2KernelsOrNull()) {
    tiers.push_back({"avx2", avx2});
  }
  const std::vector<size_t> lengths = {256, 1024, 8192};
  for (const TierEntry& tier : tiers) {
    const simd::Kernels* ker = tier.ker;
    const std::string suffix = std::string("<") + tier.name + ">/";
    for (size_t n : lengths) {
      benchmark::RegisterBenchmark(
          ("BM_SimdSquaredEd" + suffix + std::to_string(n)).c_str(),
          [ker, n](benchmark::State& state) {
            const auto a = RandomSeries(n, 1);
            const auto b = RandomSeries(n, 2);
            for (auto _ : state) {
              benchmark::DoNotOptimize(
                  ker->squared_ed(a.data(), b.data(), n, kNoAbandon));
            }
            state.SetBytesProcessed(
                static_cast<int64_t>(state.iterations() * n * 2 *
                                     sizeof(double)));
          });
      benchmark::RegisterBenchmark(
          ("BM_SimdEdZnormOrdered" + suffix + std::to_string(n)).c_str(),
          [ker, n](benchmark::State& state) {
            const auto s = RandomSeries(n, 1);
            const auto q = RandomSeries(n, 2);
            const auto order = SortedAbsOrder(q);
            std::vector<double> q_ordered(n);
            for (size_t i = 0; i < n; ++i) {
              q_ordered[i] = q[static_cast<size_t>(order[i])];
            }
            for (auto _ : state) {
              benchmark::DoNotOptimize(ker->squared_ed_znorm_ordered(
                  s.data(), order.data(), q_ordered.data(), n, 0.1, 0.9,
                  kNoAbandon));
            }
            state.SetBytesProcessed(
                static_cast<int64_t>(state.iterations() * n * 2 *
                                     sizeof(double)));
          });
      benchmark::RegisterBenchmark(
          ("BM_SimdL1" + suffix + std::to_string(n)).c_str(),
          [ker, n](benchmark::State& state) {
            const auto a = RandomSeries(n, 1);
            const auto b = RandomSeries(n, 2);
            for (auto _ : state) {
              benchmark::DoNotOptimize(
                  ker->l1(a.data(), b.data(), n, kNoAbandon));
            }
            state.SetBytesProcessed(
                static_cast<int64_t>(state.iterations() * n * 2 *
                                     sizeof(double)));
          });
      benchmark::RegisterBenchmark(
          ("BM_SimdLbKeogh" + suffix + std::to_string(n)).c_str(),
          [ker, n](benchmark::State& state) {
            const auto s = RandomSeries(n, 4);
            const auto q = RandomSeries(n, 5);
            const Envelope env = BuildEnvelope(q, n / 20);
            for (auto _ : state) {
              benchmark::DoNotOptimize(
                  ker->lb_keogh(s.data(), env.lower.data(), env.upper.data(),
                                n, 0.0, 1.0, kNoAbandon, nullptr, nullptr));
            }
            state.SetBytesProcessed(
                static_cast<int64_t>(state.iterations() * n * 3 *
                                     sizeof(double)));
          });
      benchmark::RegisterBenchmark(
          ("BM_SimdRollingMeanStd" + suffix + std::to_string(n)).c_str(),
          [ker, n](benchmark::State& state) {
            const size_t m = 256;
            const PrefixStats ps(
                std::span<const double>(RandomSeries(n + m, 6)));
            std::vector<double> means(n), stds(n);
            for (auto _ : state) {
              ker->rolling_mean_std(ps.prefix_sums().data(),
                                    ps.prefix_squares().data(), n, m,
                                    means.data(), stds.data());
              benchmark::DoNotOptimize(means.data());
              benchmark::DoNotOptimize(stds.data());
            }
            state.SetBytesProcessed(
                static_cast<int64_t>(state.iterations() * n * 4 *
                                     sizeof(double)));
          });
    }
  }
}

// ---- --json OUT: machine-readable results ----

struct JsonRow {
  std::string name;
  std::string tier;
  double ns_per_op = 0.0;
  double bytes_per_s = 0.0;
};

/// Console reporter that also collects every run, so the human-readable
/// table still prints while --json captures machine-readable rows.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      JsonRow row;
      row.name = run.benchmark_name();
      if (row.name.find("<scalar>") != std::string::npos) {
        row.tier = "scalar";
      } else if (row.name.find("<avx2>") != std::string::npos) {
        row.tier = "avx2";
      } else {
        // Non-tiered benches run whatever the process-wide dispatch chose.
        row.tier = simd::TierName(simd::ActiveTier());
      }
      if (run.iterations > 0) {
        row.ns_per_op =
            run.real_accumulated_time / static_cast<double>(run.iterations) *
            1e9;
      }
      if (auto it = run.counters.find("bytes_per_second");
          it != run.counters.end()) {
        row.bytes_per_s = it->second.value;
      }
      rows_.push_back(std::move(row));
    }
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\n  \"bench\": \"micro_kernels\",\n"
                 "  \"dispatch_tier\": \"%s\",\n  \"results\": [\n",
                 simd::TierName(simd::ActiveTier()));
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"tier\": \"%s\", "
                   "\"ns_per_op\": %.3f, \"bytes_per_s\": %.0f}%s\n",
                   rows_[i].name.c_str(), rows_[i].tier.c_str(),
                   rows_[i].ns_per_op, rows_[i].bytes_per_s,
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<JsonRow> rows_;
};

}  // namespace
}  // namespace kvmatch

int main(int argc, char** argv) {
  // Peel off --json OUT before google-benchmark sees the argument list.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int args_count = static_cast<int>(args.size()) - 1;

  benchmark::Initialize(&args_count, args.data());
  kvmatch::RegisterSimdKernelBenches();
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    kvmatch::JsonCollector collector;
    benchmark::RunSpecifiedBenchmarks(&collector);
    if (!collector.Write(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}
