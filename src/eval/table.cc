#include "src/eval/table.h"

#include <cstdio>
#include <cstdlib>

#include "src/core/policy.h"

namespace astraea {

ConsoleTable::ConsoleTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void ConsoleTable::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string ConsoleTable::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void ConsoleTable::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  for (size_t i = 0; i < total; ++i) {
    std::printf("-");
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void PrintBenchHeader(const std::string& artifact, const std::string& description) {
  const std::string policy = PolicyIdentity();
  std::printf("==============================================================\n");
  std::printf("Astraea reproduction — %s\n", artifact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("policy: %s\n", policy.c_str());
  std::printf("==============================================================\n");
}

int BenchReps(int fallback) {
  if (const char* env = std::getenv("ASTRAEA_BENCH_REPS"); env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  return fallback;
}

bool QuickMode(int argc, char** argv, cli::FlagSet flags) {
  bool quick = false;
  flags.Switch("--quick", &quick).Parse(argc, argv);
  return quick;
}

}  // namespace astraea
