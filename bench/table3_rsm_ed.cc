// Table III: RSM queries under ED — General Match (R-tree) vs KV-matchDP.
// Columns: selectivity, #candidates, #index accesses, time (ms).
// Both answers are checked against UCR Suite.
//
//   ./table3_rsm_ed [--n <len>] [--runs <k>] [--seed <s>] [--quick]
//                   [--json OUT]
#include "bench_common.h"
#include "baseline/general_match.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.quick) flags.n = std::min<size_t>(flags.n, 200'000);
  const size_t m = 1024;

  std::printf("Table III reproduction: RSM-ED, n=%zu, |Q|=%zu, %d runs\n\n",
              flags.n, m, flags.runs);
  const Workload w = Workload::Make(flags.n, flags.seed);

  Stopwatch sw_gm;
  GeneralMatch gmatch(w.series, w.prefix, {.window = 50, .paa_dims = 4,
                                           .stride = 1});
  std::printf("GeneralMatch index built in %.1fs (%.1f MB)\n",
              sw_gm.Seconds(),
              static_cast<double>(gmatch.IndexBytes()) / 1e6);
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
    double gm_cand = 0, gm_acc = 0, gm_ms = 0;
    double kv_cand = 0, kv_acc = 0, kv_ms = 0;
    for (int run = 0; run < flags.runs; ++run) {
      const auto q = MakeQuery(w, m, &rng, 0.05);
      QueryParams params{QueryType::kRsmEd, 0.0, 1.0, 0.0, 0};
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
        const auto r = gmatch.Match(q, params.epsilon, &stats);
        gm_ms += sw.Ms();
        CheckAnswer("GMatch " + row, truth, r);
        gm_cand += static_cast<double>(stats.candidate_positions);
        gm_acc += static_cast<double>(stats.index_accesses);
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
    table.AddRow({"GMatch", level.paper_label, TablePrinter::Fmt(gm_cand / k),
                  TablePrinter::Fmt(gm_acc / k),
                  TablePrinter::Fmt(gm_ms / k, 2)});
    table.AddRow({"KVM-DP", level.paper_label, TablePrinter::Fmt(kv_cand / k),
                  TablePrinter::Fmt(kv_acc / k),
                  TablePrinter::Fmt(kv_ms / k, 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Table III): KVM-DP uses ~2 orders of\n"
      "magnitude fewer index accesses and wins overall time at every\n"
      "selectivity; GMatch candidates explode at high selectivity.\n");
  return TablePrinter::WriteJson(flags, {{"", &table}}) ? 0 : 1;
}
