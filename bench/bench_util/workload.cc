#include "bench_util/workload.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace kvmatch {

namespace {

/// True when all of `text` is one number of type T.
template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

BenchFlags BenchFlags::Parse(
    int argc, char** argv,
    std::initializer_list<std::pair<std::string_view, size_t*>> extra) {
  BenchFlags flags;
  const std::string_view path = argc > 0 ? argv[0] : "";
  flags.bench = path.substr(path.find_last_of('/') + 1);
  std::string usage = "usage: " + flags.bench +
                      " [--n N] [--runs K] [--seed S] [--quick] [--json OUT]";
  if (flags.bench.starts_with("bench_")) flags.bench.erase(0, 6);
  if (argc > 0) flags.args.assign(argv + 1, argv + argc);
  for (const auto& e : extra) usage += " [" + std::string(e.first) + " N]";
  auto fail = [&](const char* why, const char* flag) {
    std::fprintf(stderr, "%s %s\n%s\n", why, flag, usage.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const std::string_view arg = flag;
    if (arg == "--help") {
      std::printf("%s\n", usage.c_str());
      std::exit(0);
    }
    if (arg == "--quick") {
      flags.quick = true;
      continue;
    }
    const auto own = std::find_if(extra.begin(), extra.end(),
                                  [&](auto& e) { return e.first == arg; });
    if (arg != "--n" && arg != "--runs" && arg != "--seed" &&
        arg != "--json" && own == extra.end()) {
      fail("unknown flag", flag);
    }
    // A missing value reads as "", which no flag accepts.
    const char* value =
        i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0 ? argv[++i]
                                                                : "";
    bool ok = *value != '\0';
    if (arg == "--n") ok = ParseNumber(value, &flags.n);
    else if (arg == "--runs")
      ok = ParseNumber(value, &flags.runs) && flags.runs > 0;
    else if (arg == "--seed") ok = ParseNumber(value, &flags.seed);
    else if (arg == "--json") flags.json_out = value;
    else ok = ParseNumber(value, own->second);
    if (!ok) fail("bad or missing value for", flag);
  }
  return flags;
}

Workload Workload::Make(size_t n, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.series = GenerateUcrLike(n, &rng);
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
