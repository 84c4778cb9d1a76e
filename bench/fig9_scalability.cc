// Fig. 9: scalability of cNSM queries — KVM-DP vs UCR Suite under ED and
// DTW across data lengths, with α = 1.5, β′ = 1.0 and fixed selectivity
// (the paper holds selectivity at 10⁻⁷ by adjusting ε). KVM-DP's answers
// are checked against UCR Suite's, and UCR Suite's against the target count.
//
//   ./fig9_scalability [--n <len>] [--runs <k>] [--seed <s>] [--quick]
//                      [--json OUT]
#include "bench_common.h"

using namespace kvmatch;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  std::vector<size_t> lengths = {100'000, 400'000, 1'000'000, 4'000'000};
  if (flags.quick) {
    lengths = {100'000, 400'000};
  } else if (flags.n > lengths.back()) {
    lengths.push_back(flags.n);
  }
  const size_t m = 512;
  const size_t rho = m / 20;
  const double fraction = 1e-4;  // paper-equivalent selectivity (see note)
  const int runs = std::max(1, flags.runs / 2);

  std::printf("Fig. 9 reproduction: cNSM scalability, |Q|=%zu, alpha=1.5, "
              "beta'=1.0, %d runs\n\n", m, runs);
  TablePrinter table({"Data length", "KVM ED (s)", "UCR ED (s)",
                      "KVM DTW (s)", "UCR DTW (s)"});
  for (size_t n : lengths) {
    const Workload w = Workload::Make(n, flags.seed);
    const MinMax mm = ComputeMinMax(w.series.values());
    const double beta = (mm.max - mm.min) * 1.0 / 100.0;

    const DpStack stack(w.series);
    const KvMatchDp kvm(w.series, w.prefix, stack.ptrs);
    const UcrSuite ucr(w.series, w.prefix);

    double kvm_ed = 0, ucr_ed = 0, kvm_dtw = 0, ucr_dtw = 0;
    Rng rng(flags.seed + 1);
    for (int run = 0; run < runs; ++run) {
      const auto q = MakeQuery(w, m, &rng, 0.05);
      const std::string row =
          "n " + std::to_string(n) + " run " + std::to_string(run);
      // KVM-DP, then UCR Suite, at one calibrated ε; both answers checked.
      auto time_pair = [&](QueryType type, size_t band, double* kvm_s,
                           double* ucr_s) {
        QueryParams params{type, 0.0, 1.5, beta, band};
        params.epsilon =
            EpsilonForSelectivity(w.series, w.prefix, q, params, fraction);
        Stopwatch sw_kvm;
        auto r = kvm.Match(q, params);
        *kvm_s += sw_kvm.Seconds();
        if (!r.ok()) {
          std::fprintf(stderr, "kvm failed: %s\n",
                       r.status().ToString().c_str());
          std::exit(1);
        }
        Stopwatch sw_ucr;
        const auto truth = ucr.Match(q, params);
        *ucr_s += sw_ucr.Seconds();
        CheckCalibrated("UCR " + row, truth, TargetMatches(n, m, fraction),
                        params.epsilon);
        CheckAnswer("KVM-DP " + row, truth, *r);
      };
      time_pair(QueryType::kCnsmEd, 0, &kvm_ed, &ucr_ed);
      time_pair(QueryType::kCnsmDtw, rho, &kvm_dtw, &ucr_dtw);
    }
    const double k = runs;
    table.AddRow({std::to_string(n), TablePrinter::Fmt(kvm_ed / k, 3),
                  TablePrinter::Fmt(ucr_ed / k, 3),
                  TablePrinter::Fmt(kvm_dtw / k, 3),
                  TablePrinter::Fmt(ucr_dtw / k, 3)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 9): UCR time grows linearly with data\n"
      "length; KVM-DP grows much more slowly, opening a gap of orders of\n"
      "magnitude as the series lengthens (2-3 orders at the paper's 10^12\n"
      "scale).\n");
  return WriteJson(flags, {{"", &table}}) ? 0 : 1;
}
