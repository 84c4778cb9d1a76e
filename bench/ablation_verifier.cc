// Ablation: the phase-2 lower-bound cascade (VerifyOptions). Measures
// cNSM-DTW verification time and pruning counters with each stage of the
// cascade toggled — quantifying what LB_Kim and LB_Keogh (the query-side
// EQ pass plus the candidate-envelope EC pass) contribute to the headline
// numbers.
//
// It is also a check: the lower bounds may only prune, never change an
// answer, so every configuration must return the same matches (offsets
// and distance bits). The bench exits non-zero when they differ.
//
//   ./ablation_verifier [--n <len>] [--runs <k>] [--seed <s>] [--quick]
#include "bench_common.h"

#include <bit>
#include <cstdint>

#include "match/kv_match.h"

using namespace kvmatch;

namespace {

/// Same offsets and the same distance bits, in the same order.
bool SameMatches(const std::vector<MatchResult>& a,
                 const std::vector<MatchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].offset != b[i].offset ||
        std::bit_cast<uint64_t>(a[i].distance) !=
            std::bit_cast<uint64_t>(b[i].distance)) {
      return false;
    }
  }
  return true;
}

}  // namespace

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

  Rng rng(flags.seed + 1);
  std::vector<std::vector<double>> queries;
  std::vector<double> eps;
  for (int run = 0; run < flags.runs; ++run) {
    auto q = MakeQuery(w, m, &rng, 0.05);
    QueryParams cal{QueryType::kCnsmDtw, 0.0, 1.5,
                    (mm.max - mm.min) * 0.05, rho};
    eps.push_back(CalibrateOnPrefix(w, q, cal, 1e-4, 100'000));
    queries.push_back(std::move(q));
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
  // Matches of the first configuration, per run: the reference every
  // other configuration must reproduce bit for bit.
  std::vector<std::vector<MatchResult>> reference;
  bool identical = true;

  TablePrinter table({"Cascade", "phase2 (ms)", "LB pruned", "DTW calls"});
  for (const Config& config : configs) {
    double ms = 0;
    uint64_t pruned = 0, calls = 0;
    for (int run = 0; run < flags.runs; ++run) {
      QueryParams params{QueryType::kCnsmDtw, eps[static_cast<size_t>(run)],
                         1.5, (mm.max - mm.min) * 0.05, rho};
      MatchOptions options;
      options.verify.use_lb_kim = config.kim;
      options.verify.use_lb_keogh = config.keogh;
      MatchStats stats;
      auto r = matcher.Match(queries[static_cast<size_t>(run)], params,
                             &stats, options);
      if (!r.ok()) {
        std::fprintf(stderr, "match failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      if (reference.size() < queries.size()) {
        reference.push_back(*r);
      } else if (!SameMatches(reference[static_cast<size_t>(run)], *r)) {
        std::fprintf(stderr, "%s: run %d returned different matches\n",
                     config.name, run);
        identical = false;
      }
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
  if (!identical) {
    std::fprintf(stderr, "FAIL: cascade configurations disagree\n");
    return 1;
  }
  std::printf("All configurations returned identical matches.\n");
  return 0;
}
