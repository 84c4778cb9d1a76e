// WriteJson: the one --json emitter behind every bench harness.
#include <cstdio>
#include <regex>

#include "bench_util/workload.h"
#include "distance/simd/kernels.h"

namespace kvmatch {

namespace {

bool IsJsonNumber(const std::string& cell) {
  static const std::regex kNumber(
      R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
  return std::regex_match(cell, kNumber);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

bool WriteJson(
    const BenchFlags& flags,
    const std::vector<std::pair<std::string, const TablePrinter*>>& tables) {
  if (flags.json_out.empty()) return true;
  std::string out = "{\n  \"bench\": " + JsonString(flags.bench) +
                    ",\n  \"dispatch_tier\": " +
                    JsonString(simd::TierName(simd::ActiveTier())) +
                    ",\n  \"flags\": {\"n\": " + std::to_string(flags.n) +
                    ", \"runs\": " + std::to_string(flags.runs) +
                    ", \"seed\": " + std::to_string(flags.seed) +
                    ", \"quick\": " + (flags.quick ? "true" : "false") +
                    ", \"args\": [";
  for (size_t i = 0; i < flags.args.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(flags.args[i]);
  }
  out += "]},\n  \"tables\": [";
  const char* table_sep = "\n";
  for (const auto& [title, table] : tables) {
    out += table_sep;
    table_sep = ",\n";
    out += "    {\"title\": " + JsonString(title) + ", \"rows\": [";
    const char* row_sep = "\n";
    for (const auto& row : table->rows()) {
      out += row_sep;
      row_sep = ",\n";
      out += "      {";
      for (size_t i = 0; i < table->headers().size(); ++i) {
        const std::string cell = i < row.size() ? row[i] : "";
        out += (i > 0 ? ", " : "") + JsonString(table->headers()[i]) + ": " +
               (IsJsonNumber(cell) ? cell : JsonString(cell));
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";

  std::FILE* f = std::fopen(flags.json_out.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "cannot write %s\n", flags.json_out.c_str());
  return ok;
}

}  // namespace kvmatch
