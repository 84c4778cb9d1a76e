// Table IV: RSM queries under DTW — DMatch (duality R-tree) vs KV-matchDP.
// Columns: selectivity, #candidates, #index accesses, time (ms).
// Both answers are checked against UCR Suite.
//
//   ./table4_rsm_dtw [--n <len>] [--runs <k>] [--seed <s>] [--quick]
//                    [--json OUT]
#include "bench_common.h"
#include "baseline/dmatch.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.quick) flags.n = std::min<size_t>(flags.n, 100'000);
  flags.runs = std::min(flags.runs, 3);  // DTW verification dominates
  const size_t m = 512;
  const size_t rho = m / 20;  // 5% Sakoe-Chiba band

  std::printf(
      "Table IV reproduction: RSM-DTW, n=%zu, |Q|=%zu, rho=%zu, %d runs\n\n",
      flags.n, m, rho, flags.runs);
  const Workload w = Workload::Make(flags.n, flags.seed);

  Stopwatch sw_dm;
  DMatch dmatch(w.series, w.prefix, {.window = 64, .paa_dims = 4});
  std::printf("DMatch index built in %.1fs (%.1f MB)\n", sw_dm.Seconds(),
              static_cast<double>(dmatch.IndexBytes()) / 1e6);
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
    double dm_cand = 0, dm_acc = 0, dm_ms = 0;
    double kv_cand = 0, kv_acc = 0, kv_ms = 0;
    for (int run = 0; run < flags.runs; ++run) {
      const auto q = MakeQuery(w, m, &rng, 0.05);
      QueryParams params{QueryType::kRsmDtw, 0.0, 1.0, 0.0, rho};
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
        const auto r = dmatch.Match(q, params.epsilon, rho, &stats);
        dm_ms += sw.Ms();
        CheckAnswer("DMatch " + row, truth, r);
        dm_cand += static_cast<double>(stats.candidate_positions);
        dm_acc += static_cast<double>(stats.index_accesses);
      }
      {
        MatchStats stats;
        Stopwatch sw;
        auto r = kvm.Match(q, params, &stats);
        kv_ms += sw.Ms();
        if (!r.ok()) {
          std::fprintf(stderr, "kvm failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        CheckAnswer("KVM-DP " + row, truth, *r);
        kv_cand += static_cast<double>(stats.candidate_positions);
        kv_acc += static_cast<double>(stats.probe.index_accesses);
      }
    }
    const double k = flags.runs;
    table.AddRow({"DMatch", level.paper_label, TablePrinter::Fmt(dm_cand / k),
                  TablePrinter::Fmt(dm_acc / k),
                  TablePrinter::Fmt(dm_ms / k, 2)});
    table.AddRow({"KVM-DP", level.paper_label, TablePrinter::Fmt(kv_cand / k),
                  TablePrinter::Fmt(kv_acc / k),
                  TablePrinter::Fmt(kv_ms / k, 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Table IV): DMatch verifies 1-2 orders of\n"
      "magnitude more candidates; KVM-DP needs only a few index scans and\n"
      "wins total time at every selectivity.\n");
  return TablePrinter::WriteJson(flags, {{"", &table}}) ? 0 : 1;
}
