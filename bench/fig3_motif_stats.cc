// Fig. 3: motif-pair statistics — for the top motif (closest normalized
// pair) of each dataset, report ΔMean = |µX - µY| / (max - min) and
// ΔStd = σX / σY. The paper's point: even unconstrained motifs have very
// close means and stds, so cNSM with small (α, β) would find them.
//
//   ./fig3_motif_stats [--seed <s>] [--quick]
#include <cmath>

#include "bench_common.h"
#include "distance/simd/kernels.h"

using namespace kvmatch;

namespace {

// Brute-force top motif over a coarse offset grid (exact motif discovery
// is out of scope; the statistic of interest is the winning pair's
// mean/std agreement, which the grid preserves).
struct Motif {
  size_t a = 0, b = 0;
  double dist = 1e300;
};

Motif FindMotif(const TimeSeries& x, size_t m, size_t stride) {
  const PrefixStats ps(x);
  // Motif convention: skip near-constant windows, whose normalization
  // amplifies noise into spurious "closest pairs".
  const double global_std = ComputeMeanStd(x.values()).std;
  std::vector<size_t> offsets;
  for (size_t off = 0; off + m <= x.size(); off += stride) {
    if (ps.WindowStd(off, m) >= 0.1 * global_std) offsets.push_back(off);
  }
  std::vector<std::vector<double>> normalized(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    normalized[i] = ZNormalize(x.Subsequence(offsets[i], m));
  }
  const simd::Kernels& ker = simd::ActiveKernels();
  Motif best;
  for (size_t i = 0; i < offsets.size(); ++i) {
    for (size_t j = i + 1; j < offsets.size(); ++j) {
      if (offsets[j] - offsets[i] < m) continue;  // trivial-match exclusion
      const double d_sq =
          ker.squared_ed(normalized[i].data(), normalized[j].data(), m,
                         best.dist * best.dist);
      if (d_sq < best.dist * best.dist) {
        best = {offsets[i], offsets[j], std::sqrt(d_sq)};
      }
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  const size_t n = flags.quick ? 20'000 : 60'000;
  const size_t m = 256;
  const size_t stride = 16;

  std::printf("Fig. 3 reproduction: motif-pair mean/std agreement "
              "(n=%zu per dataset, |motif|=%zu)\n\n", n, m);

  struct Dataset {
    const char* name;
    TimeSeries series;
  };
  // Domain-shaped datasets mirroring the paper's Fig. 3 sources (Power,
  // Temperature, Commute, ECG, ...): strongly repeated structure at a
  // consistent level, which is what gives motif pairs their mean/std
  // agreement.
  Rng rng(flags.seed);
  std::vector<Dataset> datasets;
  {
    // Power-like: daily cycle + weekday amplitude + noise.
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      const double day = std::sin(2.0 * M_PI * static_cast<double>(i) / 960.0);
      const double week =
          1.0 + 0.15 * std::sin(2.0 * M_PI * static_cast<double>(i) / 6720.0);
      v[i] = 50.0 + 20.0 * week * day + rng.Gaussian(0.0, 1.0);
    }
    datasets.push_back({"Power-like", TimeSeries(std::move(v))});
  }
  {
    // Temperature-like: slow seasonal drift + daily cycle.
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      const double season =
          2.0 * std::sin(2.0 * M_PI * static_cast<double>(i) /
                         static_cast<double>(n));
      const double day = std::sin(2.0 * M_PI * static_cast<double>(i) / 480.0);
      v[i] = 15.0 + season + 5.0 * day + rng.Gaussian(0.0, 0.4);
    }
    datasets.push_back({"Temp-like", TimeSeries(std::move(v))});
  }
  {
    // Commute-like: quiet baseline with rush-hour bursts.
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      const double phase =
          std::fmod(static_cast<double>(i), 1200.0) / 1200.0;
      const double rush =
          std::exp(-120.0 * (phase - 0.33) * (phase - 0.33)) +
          0.8 * std::exp(-120.0 * (phase - 0.71) * (phase - 0.71));
      v[i] = 10.0 + 25.0 * rush + rng.Gaussian(0.0, 0.8);
    }
    datasets.push_back({"Commute-like", TimeSeries(std::move(v))});
  }
  {
    SyntheticConfig cfg;
    cfg.sine_amp_lo = 1.0;
    cfg.sine_amp_hi = 3.0;
    datasets.push_back({"Sine-heavy", GenerateSynthetic(n, &rng, cfg)});
  }
  {
    // ECG-like: periodic spikes with drifting baseline.
    std::vector<double> v(n);
    double baseline = 0.0;
    for (size_t i = 0; i < n; ++i) {
      baseline += rng.Gaussian(0.0, 0.01);
      const double phase = std::fmod(static_cast<double>(i), 180.0) / 180.0;
      v[i] = baseline + 3.0 * std::exp(-400.0 * (phase - 0.3) * (phase - 0.3)) -
             1.0 * std::exp(-200.0 * (phase - 0.45) * (phase - 0.45)) +
             rng.Gaussian(0.0, 0.05);
    }
    datasets.push_back({"ECG-like", TimeSeries(std::move(v))});
  }

  TablePrinter table({"Dataset", "motif dist", "dMean (rel)", "dStd ratio"});
  for (const auto& ds : datasets) {
    const Motif motif = FindMotif(ds.series, m, stride);
    const MeanStd ms_a = ComputeMeanStd(ds.series.Subsequence(motif.a, m));
    const MeanStd ms_b = ComputeMeanStd(ds.series.Subsequence(motif.b, m));
    const MinMax mm = ComputeMinMax(ds.series.values());
    const double d_mean =
        std::fabs(ms_a.mean - ms_b.mean) / (mm.max - mm.min);
    const double d_std = ms_b.std > 1e-12 ? ms_a.std / ms_b.std : 0.0;
    table.AddRow({ds.name, TablePrinter::Fmt(motif.dist, 3),
                  TablePrinter::Fmt(d_mean, 4),
                  TablePrinter::Fmt(d_std, 3)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 3): ΔMean is a few percent or less and\n"
      "ΔStd is close to 1 — motif pairs satisfy tight cNSM constraints\n"
      "even though none were imposed, so cNSM queries can find them.\n");
  return 0;
}
