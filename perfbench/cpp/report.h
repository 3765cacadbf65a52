// Options, results and small statistics shared by the workloads.

#ifndef PERFBENCH_CPP_REPORT_H_
#define PERFBENCH_CPP_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measurement window
  bool trace = false;     // per-layer (traced) run instead of the end-to-end run
  bool tiny = false;      // self-test size: short simulations, small training
  std::string model_path = "models/astraea_policy_trained.ckpt";
  std::string out_dir = ".bench_build/perfbench-out";  // spans file, serve socket
};

// One reported number. Every value is emitted with all its digits.
struct Metric {
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  // Records an output check; a failed check makes the run fail.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Provenance(const std::string& key, const std::string& value) { provenance_[key] = value; }
  // Keeps the per-rep values a reported median was taken over.
  void Samples(const std::string& name, std::vector<double> values) {
    samples_[name] = std::move(values);
  }

  bool correct() const;
  size_t checks() const { return checks_.size(); }
  size_t checks_failed() const;
  std::string ToJson(const Options& options) const;

  // Operations attempted and failed. The sims and train count output checks;
  // serve counts requests.
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct CheckRecord {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> provenance_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<CheckRecord> checks_;
};

// Registers every per-layer metric at zero, so each traced run reports the
// full set; a workload overwrites the layers it exercises.
void InitPerLayer(Result* result);

// Records checkpoint path and CRC32, build and host facts.
void RecordProvenance(const Options& options, bool uses_checkpoint, Result* result);

// Peak resident set of this process, in MB.
double PeakRssMb();

// 0 for an empty sample.
inline double Median(std::vector<double> values) {
  return astraea::Percentile(std::move(values), 50.0);
}

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Whether an end-to-end run starts another rep: always until two have run
// (the second checks that the first reproduces), then while the next one, as
// long as the last, would end nearer the window's end than stopping now.
inline bool MoreReps(std::chrono::steady_clock::time_point start, size_t reps_done,
                     double last_rep_s, double seconds) {
  return reps_done < 2 || SecondsSince(start) + 0.5 * last_rep_s < seconds;
}

// Workload entry points.
Result RunSim(const Options& options, bool mlp);
Result RunTrain(const Options& options);
Result RunServe(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_REPORT_H_
