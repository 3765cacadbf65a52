// One record per bench run: named metrics with units and named pass/fail
// checks, written as JSON in perfbench's key names and shapes for the parts
// both have. Every bench that records its numbers reads one command line
// through it (--quick, --out PATH and the bench's own mode flags) and exits
// with the code Finish() returns, so a local run and CI reach one verdict.

#ifndef SRC_EVAL_BENCH_RECORD_H_
#define SRC_EVAL_BENCH_RECORD_H_

#include <map>
#include <string>
#include <vector>

namespace astraea {

class BenchRecord {
 public:
  // Reads --quick, --out PATH (default BENCH_<bench>.json in the working
  // directory), the bench's own `switches` (such as "--real") and its
  // `options` that take a value (such as "--traces") through
  // cli::FlagSet::TryParse. An unknown argument, or an option without its
  // value, is named on stderr and clears args_ok().
  BenchRecord(std::string bench, int argc, char** argv,
              const std::vector<std::string>& switches = {},
              const std::vector<std::string>& options = {});

  bool args_ok() const { return args_ok_; }
  bool quick() const { return quick_; }
  // Whether the switch `flag` was given.
  bool Has(const std::string& flag) const;
  // The value given for `option`, or `fallback` when it was not given.
  std::string Value(const std::string& option, const std::string& fallback) const;

  // Records a metric, named by its path with dots ("harness.speedup").
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a named check and returns `ok`; any failed check fails the run.
  bool Check(const std::string& name, bool ok, const std::string& detail = "");

  // Prints the metrics as a metric / value / unit table.
  void PrintMetrics() const;
  // Where the numbers came from, in perfbench's key names: build_type,
  // compiler, cxx_flags, host_cores, policy (PolicyIdentity(): "distilled"
  // or the checkpoint's path and CRC32) and quick, plus nn_kernels, the
  // instruction-set variant the batched NN kernels selected.
  const std::map<std::string, std::string>& provenance() const { return provenance_; }

  // The record: bench, correct, provenance (by key, as strings), checks as
  // {name, ok, detail} and metrics as {name: {value, unit}}. Numbers are
  // written at %.17g, non-finite ones as null.
  std::string ToJson() const;
  // Prints the checks, names each failed one on stderr and writes the record
  // to the --out path. Returns the process exit code: 0 only when every check
  // passed and the file was written.
  int Finish() const;

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };

  std::string bench_;
  bool args_ok_ = true;
  bool quick_ = false;
  std::map<std::string, bool> switches_;      // each declared switch: given?
  std::map<std::string, std::string> given_;  // each option given: its value
  std::map<std::string, std::string> provenance_;
  std::vector<CheckResult> checks_;
  std::vector<MetricValue> metrics_;
};

}  // namespace astraea

#endif  // SRC_EVAL_BENCH_RECORD_H_
