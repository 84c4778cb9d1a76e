// Table VIII: influence of window size w on KV-index size and build time,
// plus a γ (merge-threshold) ablation — the design choice DESIGN.md calls
// out for the row-merge step.
//
// It matches no queries, so it has no answers to check.
//
//   ./table8_window_size [--n <len>] [--seed <s>] [--quick] [--json OUT]
#include "bench_common.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.quick) flags.n = std::min<size_t>(flags.n, 500'000);
  std::printf("Table VIII reproduction: index size & build time vs w, "
              "n=%zu\n\n", flags.n);
  const Workload w = Workload::Make(flags.n, flags.seed);

  TablePrinter table({"w", "Size (MB)", "Building time (s)", "#rows"});
  for (size_t win : {25u, 50u, 100u, 200u, 400u}) {
    Stopwatch sw;
    const KvIndex index = BuildKvIndex(w.series, {.window = win});
    const double secs = sw.Seconds();
    table.AddRow({std::to_string(win),
                  TablePrinter::Fmt(
                      static_cast<double>(index.EncodedSizeBytes()) / 1e6, 3),
                  TablePrinter::Fmt(secs, 2),
                  std::to_string(index.num_rows())});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Table VIII): both size and build time\n"
      "decrease as w grows (smoother window means -> fewer intervals).\n");

  // ---- Ablation: merge threshold γ at w = 50. ----
  std::printf("\nAblation: row-merge threshold gamma (w=50)\n");
  TablePrinter ablation({"gamma", "#rows", "Size (MB)",
                         "avg scan rows for 1-wide probe"});
  for (double gamma : {0.0, 0.4, 0.8, 0.95}) {
    const KvIndex index = BuildKvIndex(
        w.series,
        {.window = 50, .width = 0.5, .merge_threshold = gamma});
    // Probe cost proxy: rows fetched for 200 random 1.0-wide mean ranges.
    Rng rng(flags.seed + 2);
    const MinMax mm = ComputeMinMax(w.series.values());
    double rows_sum = 0;
    for (int t = 0; t < 200; ++t) {
      const double lr = rng.Uniform(mm.min, mm.max - 1.0);
      ProbeStats stats;
      auto is = index.ProbeRange(lr, lr + 1.0, &stats);
      if (!is.ok()) return 1;
      rows_sum += static_cast<double>(stats.rows_fetched);
    }
    ablation.AddRow({TablePrinter::Fmt(gamma, 2),
                     std::to_string(index.num_rows()),
                     TablePrinter::Fmt(
                         static_cast<double>(index.EncodedSizeBytes()) / 1e6,
                         3),
                     TablePrinter::Fmt(rows_sum / 200.0, 1)});
  }
  ablation.Print();
  std::printf("\nLarger gamma merges more aggressively: fewer, fatter rows "
              "and fewer rows per scan,\nat the cost of more negative "
              "candidates per row (bounded by the row-width cap).\n");
  const bool written = WriteJson(
      flags, {{"window size", &table}, {"merge threshold", &ablation}});
  return written ? 0 : 1;
}
