// Shared workload construction for the bench harnesses: dataset + query
// generation, flag parsing, timing helpers and the --json emitter.
#ifndef KVMATCH_BENCH_UTIL_WORKLOAD_H_
#define KVMATCH_BENCH_UTIL_WORKLOAD_H_

#include <chrono>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
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

  /// Parses the common flags plus `extra`, a harness's own flags that each
  /// take a count (e.g. {"--shards", &shards}). An unknown flag, or one
  /// whose value is missing or not a number (or --runs below 1), prints the
  /// usage to stderr and exits 2; --help prints it to stdout and exits 0.
  static BenchFlags Parse(
      int argc, char** argv,
      std::initializer_list<std::pair<std::string_view, size_t*>> extra = {});
};

/// --json OUT: when `flags.json_out` is set, writes each (title, table)
/// pair as
///   {"bench", "dispatch_tier", "flags": {n, runs, seed, quick, args},
///    "tables": [{"title", "rows": [{header: cell, ...}, ...]}, ...]}
/// with the rows exactly as Print shows them; a cell that is a JSON number
/// ("12", "3.50", "1.2e-04") is written as one, any other cell as a
/// string. Returns false, after saying why on stderr, when the file cannot
/// be written; true otherwise (also when --json is unset).
bool WriteJson(
    const BenchFlags& flags,
    const std::vector<std::pair<std::string, const TablePrinter*>>& tables);

/// A dataset with its prefix-stat oracle.
struct Workload {
  TimeSeries series;
  PrefixStats prefix;  // a view of series' buffer, which a move keeps

  /// A UCR-like series (GenerateUcrLike) of n points.
  static Workload Make(size_t n, uint64_t seed);
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
