// Table VI: cNSM queries under DTW — KVM-DP vs the UCR Suite full scan at
// each (α, β′) cell of the grid, and FAST at the calibration cell, ρ = 5%
// of |Q| (CnsmGridTable in bench_common.h).
//
//   ./table6_cnsm_dtw [--n <len>] [--runs <k>] [--seed <s>] [--quick]
//                     [--json OUT]
#include "bench_common.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  if (flags.quick) flags.n = std::min<size_t>(flags.n, 100'000);
  const size_t m = 512;
  const size_t rho = m / 20;

  std::printf(
      "Table VI reproduction: cNSM-DTW, n=%zu, |Q|=%zu, rho=%zu, %d runs\n\n",
      flags.n, m, rho, flags.runs);
  const Workload w = Workload::Make(flags.n, flags.seed);
  const TablePrinter table =
      CnsmGridTable(flags, w, QueryType::kCnsmDtw, m, rho);
  table.Print();
  std::printf(
      "\nUCR Suite runs at every (alpha, b') cell; FAST at the calibration\n"
      "cell (alpha 1.5, b' 5) only.\n"
      "Expected shape (paper Table VI): KVM-DP still wins, by a smaller\n"
      "factor at the loosest settings; under DTW FAST's extra bounds beat\n"
      "plain UCR (unlike Table V).\n");
  return WriteJson(flags, {{"", &table}}) ? 0 : 1;
}
