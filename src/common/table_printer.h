// Fixed-width table printing, so bench and CLI output visually mirrors the
// paper's tables.
#ifndef KVMATCH_COMMON_TABLE_PRINTER_H_
#define KVMATCH_COMMON_TABLE_PRINTER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kvmatch {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Renders the table to stdout.
  void Print() const;

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  static std::string Fmt(double v, int precision = 1);
  static std::string FmtInt(uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace kvmatch

#endif  // KVMATCH_COMMON_TABLE_PRINTER_H_
