// perfbench: runs one workload of the Astraea benchmark and prints its result
// as one JSON line. run.py builds this binary and turns that line into the
// command's output.
//
//   perfbench --workload sim_mlp|sim_cubic|train|serve --seed N --seconds S
//             --trace 0|1 [--tiny] [--model PATH] [--out-dir DIR]
//
// Exit codes: 0 every output check passed, 1 an output check failed, 2 bad
// arguments, 3 the workload could not run (e.g. the checkpoint did not load).

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "report.h"
#include "src/util/logging.h"

namespace {

constexpr rlim_t kAddressSpaceCap = rlim_t{3} << 30;

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options->workload = value;
      } else if (flag == "--seed") {
        options->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options->seconds = std::stod(value);
      } else if (flag == "--trace") {
        options->trace = std::stoi(value) != 0;
      } else if (flag == "--model") {
        options->model_path = value;
      } else if (flag == "--out-dir") {
        options->out_dir = value;
      } else {
        std::cerr << "perfbench: unknown flag " << flag << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << flag << ": " << value << "\n";
      return false;
    }
  }
  if (!(options->seconds > 0.0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return 2;
  }
  // A run that goes wrong (e.g. a congestion window that grows without
  // bound) fails with bad_alloc here instead of exhausting the host.
  const rlimit cap{kAddressSpaceCap, kAddressSpaceCap};
  setrlimit(RLIMIT_AS, &cap);
  astraea::SetGlobalLogLevel(astraea::LogLevel::kWarning);
  perfbench::Result result;
  try {
    if (options.workload == "sim_mlp" || options.workload == "sim_cubic") {
      result = perfbench::RunSim(options, options.workload == "sim_mlp");
    } else if (options.workload == "train") {
      result = perfbench::RunTrain(options);
    } else if (options.workload == "serve") {
      result = perfbench::RunServe(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 3;
  }
  if (!options.trace) {
    result.Set("fail_pct",
               100.0 * static_cast<double>(result.failed) / static_cast<double>(result.attempted),
               "%");
    result.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }
  std::cout << result.ToJson(options) << std::endl;
  return result.correct() ? 0 : 1;
}
