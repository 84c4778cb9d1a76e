// Table V: cNSM queries under ED — KVM-DP vs the UCR Suite full scan at
// each (α, β′) cell of the grid, and FAST at the calibration cell
// (CnsmGridTable in bench_common.h).
//
//   ./table5_cnsm_ed [--n <len>] [--runs <k>] [--seed <s>] [--quick]
//                    [--json OUT]
#include "bench_common.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.quick) flags.n = std::min<size_t>(flags.n, 200'000);
  const size_t m = 512;

  std::printf("Table V reproduction: cNSM-ED, n=%zu, |Q|=%zu, %d runs\n\n",
              flags.n, m, flags.runs);
  const Workload w = Workload::Make(flags.n, flags.seed);
  const TablePrinter table =
      CnsmGridTable(flags, w, QueryType::kCnsmEd, m, 0);
  table.Print();
  std::printf(
      "\nUCR Suite runs at every (alpha, b') cell; FAST at the calibration\n"
      "cell (alpha 1.5, b' 5) only.\n"
      "Expected shape (paper Table V): KVM-DP grows with selectivity and\n"
      "with looser (α, β'); UCR/FAST are full scans and 1-2 orders\n"
      "slower; FAST's extra bounds don't pay off under ED.\n");
  return WriteJson(flags, {{"", &table}}) ? 0 : 1;
}
