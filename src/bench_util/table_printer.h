// Fixed-width table printing for the per-table bench harnesses, so bench
// output visually mirrors the paper's tables, and the one JSON emitter
// behind every harness's --json OUT.
#ifndef KVMATCH_BENCH_UTIL_TABLE_PRINTER_H_
#define KVMATCH_BENCH_UTIL_TABLE_PRINTER_H_

#include <string>
#include <utility>
#include <vector>

namespace kvmatch {

struct BenchFlags;

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Renders the table to stdout.
  void Print() const;

  /// --json OUT: when `flags.json_out` is set, writes each (title, table)
  /// pair as
  ///   {"bench", "dispatch_tier", "flags": {n, runs, seed, quick, args},
  ///    "tables": [{"title", "rows": [{header: cell, ...}, ...]}, ...]}
  /// with the rows exactly as Print shows them; a cell that is a JSON
  /// number ("12", "3.50", "1.2e-04") is written as one, any other cell as
  /// a string. Returns false, after saying why on stderr, when the file
  /// cannot be written; true otherwise (also when --json is unset).
  static bool WriteJson(
      const BenchFlags& flags,
      const std::vector<std::pair<std::string, const TablePrinter*>>& tables);

  static std::string Fmt(double v, int precision = 1);
  static std::string FmtInt(uint64_t v);
  static std::string FmtSci(double v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace kvmatch

#endif  // KVMATCH_BENCH_UTIL_TABLE_PRINTER_H_
