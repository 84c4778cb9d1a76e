// Shared workload construction for the bench harnesses: dataset + query
// generation, flag parsing, and timing helpers.
#ifndef KVMATCH_BENCH_UTIL_WORKLOAD_H_
#define KVMATCH_BENCH_UTIL_WORKLOAD_H_

#include <chrono>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ts/generator.h"
#include "ts/stats_oracle.h"
#include "ts/time_series.h"

namespace kvmatch {

/// Common command-line knobs:
///   --n <len> --runs <k> --seed <s> --quick [--json OUT]
struct BenchFlags {
  size_t n = 2'000'000;   // series length
  int runs = 3;           // queries per configuration
  uint64_t seed = 42;
  bool quick = false;     // shrink sweeps for smoke-testing
  std::string json_out;   // when set, also emit machine-readable results
  std::string bench;      // program name without its "bench_" prefix
  std::vector<std::string> args;  // the command line after the program

  static BenchFlags Parse(int argc, char** argv);
};

/// A dataset with its prefix-stat oracle.
struct Workload {
  TimeSeries series;
  PrefixStats prefix;  // a view of series' buffer, which a move keeps

  /// "ucr" (default) or "synthetic".
  static Workload Make(size_t n, uint64_t seed,
                       const std::string& kind = "ucr");
};

/// Draws a query of length `m`: a subsequence of the data perturbed with
/// light noise (so matches exist at controllable distances).
std::vector<double> MakeQuery(const Workload& w, size_t m, Rng* rng,
                              double noise_std = 0.05);

/// Wall-clock helper.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double Ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }
  double Seconds() const { return Ms() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace kvmatch

#endif  // KVMATCH_BENCH_UTIL_WORKLOAD_H_
