// Fixed-width console table printer for the benches and the CLI tools, so
// every table is printed in paper-style rows without hand-formatting, plus
// the bench binaries' banner and --quick / repetition-count conventions.

#ifndef SRC_EVAL_TABLE_H_
#define SRC_EVAL_TABLE_H_

#include <string>
#include <vector>

namespace astraea {

class ConsoleTable {
 public:
  explicit ConsoleTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 2);

  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a bench banner: which paper artifact this binary regenerates.
void PrintBenchHeader(const std::string& artifact, const std::string& description);

// Bench repetition count: ASTRAEA_BENCH_REPS env var, default `fallback`.
int BenchReps(int fallback = 3);

// True when --quick was passed (benches shrink durations).
bool QuickMode(int argc, char** argv);

}  // namespace astraea

#endif  // SRC_EVAL_TABLE_H_
