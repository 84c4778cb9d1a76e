// Shared conventions for the per-table/figure bench harnesses.
//
// Scale note: the paper evaluates on length-10⁹ series (HBase cluster);
// these harnesses default to 10⁶-ish local workloads. Selectivity levels
// are chosen so the *absolute match counts* mirror the paper's: the
// paper's selectivity 10⁻⁹..10⁻⁵ of 10⁹ offsets = 1..10⁴ matches; we use
// 10⁻⁶..10⁻² of ~10⁶ offsets = 1..10⁴ matches. ε is calibrated exactly on
// the whole series (EpsilonForSelectivity) to a fraction of its n − m + 1
// offsets, so a row's match count grows with --n: the counts above hold
// at n ≈ 10⁶ only.
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
#include "baseline/general_match.h"
#include "baseline/ucr_suite.h"
#include "bench_util/calibration.h"
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

/// Tables III and IV: KVM-DP for one RSM type against an R-tree baseline
/// named `name`, whose `baseline(q, ε, &stats)` answers one query, at each
/// calibrated selectivity: #candidates, #index accesses and time per query.
template <typename Baseline>
TablePrinter RsmTable(const BenchFlags& flags, const Workload& w,
                      QueryType type, size_t m, size_t rho, const char* name,
                      Baseline baseline) {
  const DpStack stack(w.series);
  std::printf("KVM-DP indexes built in %.1fs (%.1f MB)\n\n",
              stack.build_seconds,
              static_cast<double>(stack.TotalBytes()) / 1e6);
  const KvMatchDp kvm(w.series, w.prefix, stack.ptrs);
  const UcrSuite ucr(w.series, w.prefix);

  TablePrinter table({"Approach", "Selectivity", "#candidates",
                      "#index accesses", "Time (ms)"});
  Rng rng(flags.seed + 1);
  for (const auto& level : PaperSelectivities(flags.quick)) {
    double bl_cand = 0, bl_acc = 0, bl_ms = 0;
    double kv_cand = 0, kv_acc = 0, kv_ms = 0;
    for (int run = 0; run < flags.runs; ++run) {
      const auto q = MakeQuery(w, m, &rng, 0.05);
      QueryParams params{type, 0.0, 1.0, 0.0, rho};
      params.epsilon = EpsilonForSelectivity(w.series, w.prefix, q, params,
                                             level.fraction);
      const std::string row =
          std::string(level.paper_label) + " run " + std::to_string(run);
      const auto truth = ucr.Match(q, params);
      CheckCalibrated(row, truth, TargetMatches(flags.n, m, level.fraction),
                      params.epsilon);

      {
        RtreeMatchStats stats;
        Stopwatch sw;
        const auto r = baseline(q, params.epsilon, &stats);
        bl_ms += sw.Ms();
        CheckAnswer(name + (" " + row), truth, r);
        bl_cand += static_cast<double>(stats.candidate_positions);
        bl_acc += static_cast<double>(stats.index_accesses);
      }
      {
        MatchStats stats;
        Stopwatch sw;
        auto r = kvm.Match(q, params, &stats);
        kv_ms += sw.Ms();
        if (!r.ok()) {
          std::fprintf(stderr, "kvm failed: %s\n",
                       r.status().ToString().c_str());
          std::exit(1);
        }
        CheckAnswer("KVM-DP " + row, truth, *r);
        kv_cand += static_cast<double>(stats.candidate_positions);
        kv_acc += static_cast<double>(stats.probe.index_accesses);
      }
    }
    const double k = flags.runs;
    table.AddRow({name, level.paper_label, TablePrinter::Fmt(bl_cand / k),
                  TablePrinter::Fmt(bl_acc / k),
                  TablePrinter::Fmt(bl_ms / k, 2)});
    table.AddRow({"KVM-DP", level.paper_label, TablePrinter::Fmt(kv_cand / k),
                  TablePrinter::Fmt(kv_acc / k),
                  TablePrinter::Fmt(kv_ms / k, 2)});
  }
  return table;
}

/// Tables V and VI: KVM-DP for one cNSM type across the (α, β′) grid,
/// β = (max(X) − min(X)) · β′ %, next to the UCR Suite full scan at the
/// same cell. Each query's ε is calibrated at the middle constraints
/// (α = 1.5, β′ = 5), the only cell where FAST is timed. Every answer is
/// checked against UCR Suite's at its own cell, and the calibration cell's
/// UCR Suite answer against its target count.
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
                      "UCR b'=1.0 (ms)", "KVM b'=5.0 (ms)", "UCR b'=5.0 (ms)",
                      "KVM b'=10.0 (ms)", "UCR b'=10.0 (ms)",
                      "FAST b'=5.0 (ms)"});
  Rng rng(flags.seed + 1);
  for (const auto& level : PaperSelectivities(flags.quick)) {
    std::vector<std::vector<double>> queries;
    std::vector<double> eps;
    for (int run = 0; run < flags.runs; ++run) {
      queries.push_back(MakeQuery(w, m, &rng, 0.05));
      eps.push_back(EpsilonForSelectivity(w.series, w.prefix, queries.back(),
                                          params_at(0.0, 1.5, 5.0),
                                          level.fraction));
    }

    for (double alpha : {1.1, 1.5, 2.0}) {
      std::vector<std::string> cells = {level.paper_label,
                                        TablePrinter::Fmt(alpha)};
      std::string fast_cell = "-";
      for (double beta_prime : {1.0, 5.0, 10.0}) {
        const bool calibration_cell = alpha == 1.5 && beta_prime == 5.0;
        double kvm_ms = 0, ucr_ms = 0, fast_ms = 0;
        for (size_t run = 0; run < queries.size(); ++run) {
          const QueryParams params = params_at(eps[run], alpha, beta_prime);
          const std::string row =
              std::string(level.paper_label) + " alpha " +
              TablePrinter::Fmt(alpha) + " b' " +
              TablePrinter::Fmt(beta_prime) + " run " + std::to_string(run);
          Stopwatch sw;
          auto r = kvm.Match(queries[run], params);
          kvm_ms += sw.Ms();
          if (!r.ok()) {
            std::fprintf(stderr, "KVM-DP %s failed: %s\n", row.c_str(),
                         r.status().ToString().c_str());
            std::exit(1);
          }
          Stopwatch sw_ucr;
          const auto truth = ucr.Match(queries[run], params);
          ucr_ms += sw_ucr.Ms();
          CheckAnswer("KVM-DP " + row, truth, *r);
          if (calibration_cell) {
            CheckCalibrated("UCR " + row, truth,
                            TargetMatches(w.series.size(), m, level.fraction),
                            params.epsilon);
            Stopwatch sw_fast;
            const auto fast_answer = fast.Match(queries[run], params);
            fast_ms += sw_fast.Ms();
            CheckAnswer("FAST " + row, truth, fast_answer);
          }
        }
        cells.push_back(TablePrinter::Fmt(kvm_ms / flags.runs, 2));
        cells.push_back(TablePrinter::Fmt(ucr_ms / flags.runs, 2));
        if (calibration_cell) {
          fast_cell = TablePrinter::Fmt(fast_ms / flags.runs, 2);
        }
      }
      cells.push_back(fast_cell);
      table.AddRow(std::move(cells));
    }
  }
  return table;
}

}  // namespace kvmatch

#endif  // KVMATCH_BENCH_BENCH_COMMON_H_
