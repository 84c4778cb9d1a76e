// Shared conventions for the per-table/figure bench harnesses.
//
// Scale note: the paper evaluates on length-10⁹ series (HBase cluster);
// these harnesses default to 10⁶-ish local workloads. Selectivity levels
// are chosen so the *absolute match counts* mirror the paper's: the
// paper's selectivity 10⁻⁹..10⁻⁵ of 10⁹ offsets = 1..10⁴ matches; we use
// 10⁻⁶..10⁻² of ~10⁶ offsets = 1..10⁴ matches. ε is calibrated exactly on
// the whole series (EpsilonForSelectivity), so a row holds its match count
// at any --n.
//
// Every answer a harness times is checked against UCR Suite at the same
// parameters (CheckAnswer), and a calibrated row's UCR Suite answer must
// hold exactly its target count apart from ties (CheckCalibrated). A
// failed check prints the row and exits 1.
#ifndef KVMATCH_BENCH_BENCH_COMMON_H_
#define KVMATCH_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/fast_matcher.h"
#include "baseline/ucr_suite.h"
#include "bench_util/calibration.h"
#include "bench_util/table_printer.h"
#include "bench_util/workload.h"
#include "index/index_builder.h"
#include "match/top_k.h"
#include "matchdp/kv_match_dp.h"

namespace kvmatch {

/// Paper-equivalent selectivity ladder (see scale note above). Labels keep
/// the paper's exponents for easy cross-reading.
struct SelectivityLevel {
  const char* paper_label;  // as printed in the paper's tables
  double fraction;          // of our (n - m + 1) offsets
};

inline std::vector<SelectivityLevel> PaperSelectivities(bool quick) {
  std::vector<SelectivityLevel> levels = {
      {"10^-9", 1e-6}, {"10^-8", 1e-5}, {"10^-7", 1e-4},
      {"10^-6", 1e-3}, {"10^-5", 1e-2},
  };
  if (quick) levels.resize(2);
  return levels;
}

/// Builds the default KV-matchDP index stack Σ = {25, 50, 100, 200, 400}
/// (paper §VIII-A4).
struct DpStack {
  std::vector<KvIndex> indexes;
  std::vector<const KvIndex*> ptrs;
  double build_seconds = 0.0;

  explicit DpStack(const TimeSeries& series, size_t wu = 25, size_t levels = 5,
                   double width = 0.5) {
    Stopwatch sw;
    indexes = BuildIndexSet(series, wu, levels, width);
    build_seconds = sw.Seconds();
    for (const auto& index : indexes) ptrs.push_back(&index);
  }

  uint64_t TotalBytes() const {
    uint64_t bytes = 0;
    for (const auto& index : indexes) bytes += index.EncodedSizeBytes();
    return bytes;
  }
};

/// Exits 1 unless `got` equals `truth`, UCR Suite's answer at the same
/// parameters: the same offsets and the same distance bits, in offset
/// order. `row` names the table row in the message.
inline void CheckAnswer(const std::string& row,
                        const std::vector<MatchResult>& truth,
                        const std::vector<MatchResult>& got) {
  const size_t common = std::min(truth.size(), got.size());
  size_t i = 0;
  while (i < common && truth[i].offset == got[i].offset &&
         std::bit_cast<uint64_t>(truth[i].distance) ==
             std::bit_cast<uint64_t>(got[i].distance)) {
    ++i;
  }
  if (i == common && truth.size() == got.size()) return;
  std::fprintf(stderr,
               "answer check failed: %s: %zu matches, UCR Suite %zu; first "
               "difference at #%zu",
               row.c_str(), got.size(), truth.size(), i);
  if (i < common) {
    std::fprintf(stderr, ": offset %zu dist %.17g vs UCR offset %zu dist %.17g",
                 got[i].offset, got[i].distance, truth[i].offset,
                 truth[i].distance);
  }
  std::fprintf(stderr, "\n");
  std::exit(1);
}

/// Exits 1 unless `truth`, UCR Suite's answer at the calibrated `epsilon`,
/// holds exactly `k` matches apart from ties: at least k, and its k-th
/// smallest distance is ε itself, so every match past the k-th ties at ε.
inline void CheckCalibrated(const std::string& row,
                            std::vector<MatchResult> truth, size_t k,
                            double epsilon) {
  std::sort(truth.begin(), truth.end(), MatchOrderLess);
  if (truth.size() >= k && k > 0 && truth[k - 1].distance == epsilon) return;
  std::fprintf(stderr,
               "calibration check failed: %s: eps %.17g gives %zu UCR Suite "
               "matches for a target of %zu\n",
               row.c_str(), epsilon, truth.size(), k);
  std::exit(1);
}

/// Tables V and VI: KVM-DP for one cNSM type across the (α, β′) grid,
/// β = (max(X) − min(X)) · β′ %, against the UCR Suite and FAST full
/// scans. Each query's ε is calibrated at the middle constraints (α = 1.5,
/// β′ = 5), where UCR Suite and FAST are timed: their runtimes barely move
/// across the grid, and the paper reports a per-selectivity average.
/// Every answer is checked against UCR Suite at its own constraints.
inline TablePrinter CnsmGridTable(const BenchFlags& flags, const Workload& w,
                                  QueryType type, size_t m, size_t rho) {
  const MinMax mm = ComputeMinMax(w.series.values());
  auto params_at = [&](double eps, double alpha, double beta_prime) {
    return QueryParams{type, eps, alpha, (mm.max - mm.min) * beta_prime / 100.0,
                       rho};
  };
  const DpStack stack(w.series);
  const KvMatchDp kvm(w.series, w.prefix, stack.ptrs);
  const UcrSuite ucr(w.series, w.prefix);
  const FastMatcher fast(w.series, w.prefix);

  TablePrinter table({"Selectivity", "alpha", "KVM b'=1.0 (ms)",
                      "KVM b'=5.0 (ms)", "KVM b'=10.0 (ms)", "UCR avg (ms)",
                      "FAST avg (ms)"});
  Rng rng(flags.seed + 1);
  for (const auto& level : PaperSelectivities(flags.quick)) {
    std::vector<std::vector<double>> queries;
    std::vector<double> eps;
    double ucr_ms = 0, fast_ms = 0;
    for (int run = 0; run < flags.runs; ++run) {
      const std::string row =
          std::string(level.paper_label) + " run " + std::to_string(run);
      auto q = MakeQuery(w, m, &rng, 0.05);
      QueryParams params = params_at(0.0, 1.5, 5.0);
      params.epsilon = EpsilonForSelectivity(w.series, w.prefix, q, params,
                                             level.fraction);
      Stopwatch sw_ucr;
      const auto truth = ucr.Match(q, params);
      ucr_ms += sw_ucr.Ms();
      CheckCalibrated("UCR " + row, truth,
                      TargetMatches(w.series.size(), m, level.fraction),
                      params.epsilon);
      Stopwatch sw_fast;
      const auto fast_answer = fast.Match(q, params);
      fast_ms += sw_fast.Ms();
      CheckAnswer("FAST " + row, truth, fast_answer);
      queries.push_back(std::move(q));
      eps.push_back(params.epsilon);
    }

    for (double alpha : {1.1, 1.5, 2.0}) {
      std::vector<std::string> cells = {level.paper_label,
                                        TablePrinter::Fmt(alpha)};
      for (double beta_prime : {1.0, 5.0, 10.0}) {
        double kvm_ms = 0;
        for (size_t run = 0; run < queries.size(); ++run) {
          const QueryParams params = params_at(eps[run], alpha, beta_prime);
          Stopwatch sw;
          auto r = kvm.Match(queries[run], params);
          kvm_ms += sw.Ms();
          const std::string row =
              "KVM-DP " + std::string(level.paper_label) + " alpha " +
              TablePrinter::Fmt(alpha) + " b' " +
              TablePrinter::Fmt(beta_prime) + " run " + std::to_string(run);
          if (!r.ok()) {
            std::fprintf(stderr, "%s failed: %s\n", row.c_str(),
                         r.status().ToString().c_str());
            std::exit(1);
          }
          CheckAnswer(row, ucr.Match(queries[run], params), *r);
        }
        cells.push_back(TablePrinter::Fmt(kvm_ms / flags.runs, 2));
      }
      cells.push_back(TablePrinter::Fmt(ucr_ms / flags.runs, 2));
      cells.push_back(TablePrinter::Fmt(fast_ms / flags.runs, 2));
      table.AddRow(std::move(cells));
    }
  }
  return table;
}

}  // namespace kvmatch

#endif  // KVMATCH_BENCH_BENCH_COMMON_H_
