#include "src/eval/bench_record.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/eval/table.h"
#include "src/nn/mlp.h"
#include "src/util/cli_flags.h"

namespace astraea {
namespace {

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

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

BenchRecord::BenchRecord(std::string bench, int argc, char** argv,
                         const std::vector<std::string>& switches,
                         const std::vector<std::string>& options)
    : bench_(std::move(bench)) {
  const auto listed = [](const std::vector<std::string>& flags, const std::string& arg) {
    return std::find(flags.begin(), flags.end(), arg) != flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick_ = true;
    } else if (listed(switches, arg)) {
      given_[arg] = "";
    } else if ((arg == "--out" || listed(options, arg)) && i + 1 < argc) {
      given_[arg] = argv[++i];
    } else {
      std::fprintf(stderr, "%s: unknown argument or missing value: %s\n", argv[0], arg.c_str());
      args_ok_ = false;
    }
  }
  provenance_ = {
      {"build_type", ASTRAEA_BUILD_TYPE},
      {"compiler", ASTRAEA_COMPILER},
      {"cxx_flags", ASTRAEA_CXX_FLAGS},
      {"host_cores", std::to_string(std::thread::hardware_concurrency())},
      {"nn_kernels", BatchedKernelVariant()},
      {"quick", quick_ ? "true" : "false"},
  };
}

std::string BenchRecord::Value(const std::string& option, const std::string& fallback) const {
  const auto it = given_.find(option);
  return it == given_.end() ? fallback : it->second;
}

void BenchRecord::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool BenchRecord::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  return ok;
}

void BenchRecord::PrintMetrics() const {
  ConsoleTable table({"metric", "value", "unit"});
  for (const MetricValue& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), std::fabs(m.value) >= 1e6 ? "%.0f" : "%.6g", m.value);
    table.AddRow({m.name, buf, m.unit});
  }
  table.Print();
}

std::string BenchRecord::ToJson() const {
  const bool correct = std::all_of(checks_.begin(), checks_.end(),
                                   [](const CheckResult& c) { return c.ok; });
  std::string json = "{\n  \"bench\": " + JsonString(bench_) +
                     ",\n  \"correct\": " + (correct ? "true" : "false") +
                     ",\n  \"provenance\": {";
  for (auto it = provenance_.begin(); it != provenance_.end(); ++it) {
    json += std::string(it != provenance_.begin() ? ", " : "") + JsonString(it->first) + ": " +
            JsonString(it->second);
  }
  json += "},\n  \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const CheckResult& c = checks_[i];
    json += std::string(i > 0 ? "," : "") + "\n    {\"name\": " + JsonString(c.name) +
            ", \"ok\": " + (c.ok ? "true" : "false") + ", \"detail\": " + JsonString(c.detail) +
            "}";
  }
  json += "\n  ],\n  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricValue& m = metrics_[i];
    json += std::string(i > 0 ? "," : "") + "\n    " + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return json + "\n  }\n}\n";
}

int BenchRecord::Finish() const {
  bool correct = true;
  if (!checks_.empty()) {
    ConsoleTable table({"check", "result", "detail"});
    for (const CheckResult& c : checks_) {
      table.AddRow({c.name, c.ok ? "ok" : "FAILED", c.detail});
      if (!c.ok) {
        std::fprintf(stderr, "FAILED check %s: %s\n", c.name.c_str(), c.detail.c_str());
        correct = false;
      }
    }
    table.Print();
  }
  const std::string path = Value("--out", "BENCH_" + bench_ + ".json");
  if (!cli::WriteOutputFile(path, ToJson())) {
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return correct ? 0 : 1;
}

}  // namespace astraea
