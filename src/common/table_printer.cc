#include "common/table_printer.h"

#include <cstdio>

namespace kvmatch {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_sep = [&] {
    std::printf("+");
    for (size_t wdt : widths) {
      for (size_t k = 0; k < wdt + 2; ++k) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : "";
      std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string TablePrinter::Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::FmtInt(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace kvmatch
