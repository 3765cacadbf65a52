#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "src/util/checkpoint.h"

namespace perfbench {

namespace {

// Every per-layer metric; BENCHMARK.json's per_layer list names the same set.
struct MetricName {
  const char* name;
  const char* unit;
};
constexpr MetricName kPerLayer[] = {
    {"nn.infer_calls", "count"},        {"nn.infer_s", "s"},
    {"nn.infer_us_p50", "us"},          {"nn.infer_us_p99", "us"},
    {"core.mtp_calls", "count"},        {"core.mtp_self_s", "s"},
    {"cc.ack_calls", "count"},          {"cc.ack_self_s", "s"},
    {"cc.loss_calls", "count"},         {"sim.queue.enqueues", "count"},
    {"sim.queue.drops", "count"},       {"sim.queue.self_s", "s"},
    {"sim.events", "count"},            {"sim.self_s", "s"},
    {"sim.self_ns_per_event", "ns"},    {"train.rounds", "count"},
    {"train.env_steps", "count"},       {"train.round_s", "s"},
    {"train.updates", "count"},         {"train.update_s", "s"},
    {"train.update_ms_per_step", "ms"}, {"train.interleave_stalls", "count"},
    {"serve.batches", "count"},         {"serve.batch_mean", "count"},
    {"serve.service_us_mean", "us"},    {"serve.shed", "count"},
    {"ipc.overhead_us", "us"},          {"setup.model_load_s", "s"},
    {"serve.rtt_p99_us", "us"},         {"trace.overhead_pct", "%"},
};

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

void Result::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

bool Result::correct() const { return checks_failed() == 0 && !checks_.empty(); }

size_t Result::checks_failed() const {
  return static_cast<size_t>(
      std::count_if(checks_.begin(), checks_.end(), [](const CheckRecord& c) { return !c.ok; }));
}

std::string Result::ToJson(const Options& options) const {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(options.workload) << ",\"seed\":" << options.seed
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"provenance\":{";
  const char* sep = "";
  for (const auto& [key, value] : provenance_) {
    out << sep << JsonString(key) << ":" << JsonString(value);
    sep = ",";
  }
  out << "},\"checks\":[";
  sep = "";
  for (const CheckRecord& c : checks_) {
    out << sep << "{\"name\":" << JsonString(c.name) << ",\"ok\":" << (c.ok ? "true" : "false")
        << ",\"detail\":" << JsonString(c.detail) << "}";
    sep = ",";
  }
  out << "],\"metrics\":{";
  sep = "";
  for (const auto& [name, metric] : metrics_) {
    out << sep << JsonString(name) << ":{\"value\":" << JsonNumber(metric.value)
        << ",\"unit\":" << JsonString(metric.unit) << "}";
    sep = ",";
  }
  out << "},\"samples\":{";
  sep = "";
  for (const auto& [name, values] : samples_) {
    out << sep << JsonString(name) << ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      out << (i > 0 ? "," : "") << JsonNumber(values[i]);
    }
    out << "]";
    sep = ",";
  }
  out << "}}";
  return out.str();
}

void InitPerLayer(Result* result) {
  for (const MetricName& m : kPerLayer) {
    result->Set(m.name, 0.0, m.unit);
  }
}

void RecordProvenance(const Options& options, bool uses_checkpoint, Result* result) {
  result->Provenance("build_type", PERFBENCH_BUILD_TYPE);
  result->Provenance("cxx_flags", PERFBENCH_CXX_FLAGS);
  result->Provenance("compiler", PERFBENCH_COMPILER);
  result->Provenance("host_cores", std::to_string(std::thread::hardware_concurrency()));
  result->Provenance("workload_seed", std::to_string(options.seed));
  if (!uses_checkpoint) {
    result->Provenance("policy", "none");
    return;
  }
  std::ifstream in(options.model_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", astraea::Crc32(bytes.data(), bytes.size()));
  result->Provenance("policy", options.model_path + " crc32=" + crc);
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss keeps the launching process's peak
  // across exec, so it would report the launcher's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
