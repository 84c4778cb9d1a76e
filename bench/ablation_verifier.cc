// Ablation: the phase-2 lower-bound cascade (VerifyOptions). Measures
// cNSM-DTW verification time and pruning counters with each stage of the
// cascade toggled — quantifying what LB_Kim and LB_Keogh (the query-side
// EQ pass plus the candidate-envelope EC pass) contribute to the headline
// numbers.
//
// It is also a check: the lower bounds may only prune, never change an
// answer, so every configuration must return UCR Suite's matches (offsets
// and distance bits). The bench exits non-zero when one differs.
//
//   ./ablation_verifier [--n <len>] [--runs <k>] [--seed <s>] [--quick]
//                       [--json OUT]
#include "bench_common.h"

#include "match/kv_match.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  flags.n = std::min<size_t>(flags.n, flags.quick ? 100'000 : 400'000);
  const size_t m = 512;
  const size_t rho = m / 20;

  std::printf("Ablation: verifier lower-bound cascade, cNSM-DTW, n=%zu, "
              "|Q|=%zu, %d runs\n\n", flags.n, m, flags.runs);
  const Workload w = Workload::Make(flags.n, flags.seed);
  const MinMax mm = ComputeMinMax(w.series.values());
  const KvIndex index = BuildKvIndex(w.series, {.window = 64});
  const KvMatcher matcher(w.series, w.prefix, index);
  const UcrSuite ucr(w.series, w.prefix);

  Rng rng(flags.seed + 1);
  std::vector<std::vector<double>> queries;
  std::vector<QueryParams> params;
  std::vector<std::vector<MatchResult>> truths;
  for (int run = 0; run < flags.runs; ++run) {
    queries.push_back(MakeQuery(w, m, &rng, 0.05));
    QueryParams p{QueryType::kCnsmDtw, 0.0, 1.5, (mm.max - mm.min) * 0.05,
                  rho};
    p.epsilon =
        EpsilonForSelectivity(w.series, w.prefix, queries.back(), p, 1e-4);
    truths.push_back(ucr.Match(queries.back(), p));
    CheckCalibrated("run " + std::to_string(run), truths.back(),
                    TargetMatches(flags.n, m, 1e-4), p.epsilon);
    params.push_back(p);
  }

  struct Config {
    const char* name;
    bool kim, keogh;
  };
  const Config configs[] = {
      {"no lower bounds", false, false},
      {"LB_Kim only", true, false},
      {"LB_Keogh EQ+EC only", false, true},
      {"full cascade (default)", true, true},
  };
  TablePrinter table({"Cascade", "phase2 (ms)", "LB pruned", "DTW calls"});
  for (const Config& config : configs) {
    double ms = 0;
    uint64_t pruned = 0, calls = 0;
    for (size_t run = 0; run < queries.size(); ++run) {
      MatchOptions options;
      options.verify.use_lb_kim = config.kim;
      options.verify.use_lb_keogh = config.keogh;
      MatchStats stats;
      auto r = matcher.Match(queries[run], params[run], &stats, options);
      if (!r.ok()) {
        std::fprintf(stderr, "match failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      CheckAnswer(std::string(config.name) + " run " + std::to_string(run),
                  truths[run], *r);
      ms += stats.phase2_ms;
      pruned += stats.lb_pruned;
      calls += stats.distance_calls;
    }
    const double k = flags.runs;
    table.AddRow({config.name, TablePrinter::Fmt(ms / k, 1),
                  TablePrinter::Fmt(static_cast<double>(pruned) / k),
                  TablePrinter::Fmt(static_cast<double>(calls) / k)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: each stage cuts DTW calls; LB_Keogh (EQ, then EC on\n"
      "the block envelope) does the heavy lifting, LB_Kim is a cheap first\n"
      "filter, and the full cascade gives the lowest phase-2 time.\n");
  std::printf("All configurations returned UCR Suite's matches.\n");
  return WriteJson(flags, {{"", &table}}) ? 0 : 1;
}
