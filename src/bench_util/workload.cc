#include "bench_util/workload.h"

#include <cstdlib>
#include <cstring>
#include <string_view>

namespace kvmatch {

BenchFlags BenchFlags::Parse(int argc, char** argv) {
  BenchFlags flags;
  if (argc > 0) {
    const std::string_view path = argv[0];
    flags.bench = path.substr(path.find_last_of('/') + 1);
    if (flags.bench.starts_with("bench_")) flags.bench.erase(0, 6);
    flags.args.assign(argv + 1, argv + argc);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      flags.n = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      flags.runs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      flags.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      flags.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      flags.json_out = argv[++i];
    }
  }
  return flags;
}

Workload Workload::Make(size_t n, uint64_t seed, const std::string& kind) {
  Rng rng(seed);
  Workload w;
  w.series = kind == "synthetic" ? GenerateSynthetic(n, &rng)
                                 : GenerateUcrLike(n, &rng);
  w.prefix = PrefixStats(w.series);
  return w;
}

std::vector<double> MakeQuery(const Workload& w, size_t m, Rng* rng,
                              double noise_std) {
  const size_t n = w.series.size();
  const size_t offset =
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n - m)));
  return ExtractQuery(w.series, offset, m, noise_std, rng);
}

}  // namespace kvmatch
