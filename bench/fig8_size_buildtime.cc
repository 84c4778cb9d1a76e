// Fig. 8: index size and build time vs data length — KVM-DP (all five
// KV-indexes) vs DMatch (R-tree), with the raw data size for reference.
//
// Paper sweeps 10⁶..10⁹ on a cluster; default here is 10⁵..4·10⁶
// (--n raises the top point).
//
// It matches no queries, so it has no answers to check.
//
//   ./fig8_size_buildtime [--n <len>] [--seed <s>] [--quick] [--json OUT]
#include "bench_common.h"

#include "baseline/dmatch.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  std::vector<size_t> lengths = {100'000, 400'000, 1'000'000, 4'000'000};
  if (flags.quick) {
    lengths = {100'000, 400'000};
  } else if (flags.n > lengths.back()) {
    lengths.push_back(flags.n);
  }

  std::printf("Fig. 8 reproduction: index size & build time vs data "
              "length\n\n");
  TablePrinter table({"Data length", "Data (MB)", "KVM-DP size (MB)",
                      "KVM-DP build (s)", "DMatch size (MB)",
                      "DMatch build (s)"});
  for (size_t n : lengths) {
    const Workload w = Workload::Make(n, flags.seed);
    const double data_mb = static_cast<double>(n * sizeof(double)) / 1e6;

    const DpStack stack(w.series);
    const double kvm_mb = static_cast<double>(stack.TotalBytes()) / 1e6;

    Stopwatch sw;
    const DMatch dmatch(w.series, w.prefix, {.window = 64, .paa_dims = 4});
    const double dm_s = sw.Seconds();
    const double dm_mb = static_cast<double>(dmatch.IndexBytes()) / 1e6;

    table.AddRow({std::to_string(n), TablePrinter::Fmt(data_mb, 1),
                  TablePrinter::Fmt(kvm_mb, 2),
                  TablePrinter::Fmt(stack.build_seconds, 2),
                  TablePrinter::Fmt(dm_mb, 2), TablePrinter::Fmt(dm_s, 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 8): both index families are a small\n"
      "fraction of the data and grow linearly; KV-index builds are faster\n"
      "than the R-tree baseline (O(n) streaming vs sort/tile + tree).\n");
  return WriteJson(flags, {{"", &table}}) ? 0 : 1;
}
