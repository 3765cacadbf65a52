#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policy.h"
#include "src/eval/bench_record.h"
#include "src/eval/cli_scenario.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"
#include "src/nn/mlp.h"
#include "src/util/serialization.h"
#include "src/util/stats.h"

namespace astraea {
namespace {

TEST(DumbbellScenarioTest, BufferSizedInBdpMultiples) {
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 2.0;
  {
    DumbbellScenario scenario(config);
    EXPECT_EQ(scenario.BufferBytes(), 2u * 375'000u);
    EXPECT_EQ(scenario.bottleneck().queue().capacity_bytes(), 2u * 375'000u);
  }
  // A trace drives the service rate only: the buffer still follows
  // `bandwidth`, not the trace's first slot (80 Mbps here).
  config.trace = std::make_shared<RateTrace>(
      MakeSquareWaveTrace(Seconds(10.0), Seconds(1.0), Mbps(20), Mbps(80)));
  DumbbellScenario traced(config);
  EXPECT_EQ(traced.BufferBytes(), 2u * 375'000u);
  EXPECT_EQ(traced.bottleneck().queue().capacity_bytes(), 2u * 375'000u);
}

TEST(DumbbellScenarioTest, SchemeNamesResolve) {
  DumbbellConfig config;
  DumbbellScenario scenario(config);
  for (const char* name :
       {"newreno", "cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca", "remy"}) {
    EXPECT_GE(scenario.AddFlow(name, 0), 0) << name;
  }
}

TEST(MetricsTest, JainPerTimeslotSkipsSingleFlowSlots) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  DumbbellScenario scenario(config);
  scenario.AddFlow("cubic", 0);
  scenario.AddFlow("cubic", Seconds(5.0));
  scenario.Run(Seconds(10.0));

  // Slots before the second flow starts must be skipped entirely.
  const auto jains = JainPerTimeslot(scenario.network(), 0, Seconds(10.0), Seconds(1.0));
  EXPECT_LE(jains.size(), 5u);
  EXPECT_GE(jains.size(), 4u);
  for (double j : jains) {
    EXPECT_GE(j, 0.5);
    EXPECT_LE(j, 1.0);
  }
}

TEST(MetricsTest, UtilizationOfSaturatedLinkNearOne) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  DumbbellScenario scenario(config);
  scenario.AddFlow("cubic", 0);
  scenario.Run(Seconds(10.0));
  const double util = LinkUtilization(scenario.network(), 0, Seconds(2.0), Seconds(10.0));
  EXPECT_GT(util, 0.9);
  EXPECT_LE(util, 1.05);
}

TEST(MetricsTest, ConvergenceMeasurementFindsEntryTime) {
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  DumbbellScenario scenario(config);
  scenario.AddFlow("astraea", 0);
  scenario.AddFlow("astraea", Seconds(8.0));
  scenario.Run(Seconds(30.0));

  const ConvergenceMeasurement m =
      MeasureConvergence(scenario.network(), 1, Seconds(8.0), 50.0, 0.10, Seconds(1.0),
                         Seconds(30.0));
  ASSERT_GE(m.convergence_time, 0) << "flow never converged";
  EXPECT_LT(m.convergence_time, Seconds(10.0));
  EXPECT_LT(m.stability_mbps, 10.0);
}

TEST(MetricsTest, AggregateLossOnCleanDelayBasedFlowIsTiny) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  config.buffer_bdp = 2.0;
  DumbbellScenario scenario(config);
  scenario.AddFlow("vegas", 0);
  scenario.Run(Seconds(10.0));
  EXPECT_LT(AggregateLossRatio(scenario.network()), 0.001);
}

// The window metrics over a flow range read only the flows in it: one
// Astraea flow scored against a CUBIC cross flow on the same link.
TEST(MetricsTest, FlowRangeIgnoresCrossFlow) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  DumbbellScenario scenario(config);
  scenario.AddFlow("astraea", 0);
  scenario.AddFlow("cubic", 0);
  const TimeNs until = Seconds(10.0);
  scenario.Run(until);
  const Network& net = scenario.network();
  const TimeNs begin = Seconds(2.0);
  const FlowRange astraea = {0, 1};

  // One flow in range: no slot has two active flows.
  EXPECT_EQ(AverageJain(net, begin, until, Seconds(1.0), astraea), 1.0);
  EXPECT_LT(AverageJain(net, begin, until, Seconds(1.0)), 1.0);

  const TimeSeries& thr = net.flow_stats(0).throughput_mbps;
  const double astraea_bits = thr.MeanOver(begin, until) * 1e6 * ToSeconds(until - begin);
  const double capacity_bits = config.bandwidth * ToSeconds(until - begin);
  EXPECT_DOUBLE_EQ(LinkUtilization(net, 0, begin, until, astraea), astraea_bits / capacity_bits);
  EXPECT_LT(LinkUtilization(net, 0, begin, until, astraea), LinkUtilization(net, 0, begin, until));

  std::vector<double> rtts;
  for (const auto& [t, rtt_ms] : net.flow_stats(0).rtt_ms.points()) {
    if (t >= begin && t < until) {
      rtts.push_back(rtt_ms);
    }
  }
  ASSERT_FALSE(rtts.empty());
  EXPECT_EQ(P95RttMs(net, begin, until, astraea), Percentile(rtts, 95.0));
  EXPECT_NE(P95RttMs(net, begin, until, astraea), P95RttMs(net, begin, until));
}

TEST(CliScenarioTest, FractionalRttRoundsToNanoseconds) {
  ScenarioCliOptions opts;
  opts.rtt_ms = 0.5;
  EXPECT_EQ(BuildDumbbellConfig(opts).base_rtt, 500'000);
  opts.rtt_ms = 2.99;
  EXPECT_EQ(BuildDumbbellConfig(opts).base_rtt, 2'990'000);
  opts.rtt_ms = 30.0;
  EXPECT_EQ(BuildDumbbellConfig(opts).base_rtt, Milliseconds(30));
}

// With --trace every queue discipline holds the scenario's one buffer size,
// sized from the trace's first slot.
TEST(CliScenarioTest, TraceQueueCapacityIsTheBufferSize) {
  ScenarioCliOptions opts;
  opts.trace_file = std::string(ASTRAEA_SOURCE_DIR) + "/traces/cellular.trace";
  for (const char* qdisc : {"droptail", "red", "codel"}) {
    opts.qdisc = qdisc;
    DumbbellScenario scenario(BuildDumbbellConfig(opts));
    EXPECT_EQ(scenario.BufferBytes(),
              BdpBufferBytes(scenario.config().trace->RateAt(0), Milliseconds(30), 1.0))
        << qdisc;
    EXPECT_EQ(scenario.bottleneck().queue().capacity_bytes(), scenario.BufferBytes()) << qdisc;
  }
}

TEST(ConsoleTableTest, NumFormatsPrecision) {
  EXPECT_EQ(ConsoleTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(ConsoleTable::Num(2.0, 0), "2");
}

TEST(BenchRepsTest, DefaultsWithoutEnv) {
  unsetenv("ASTRAEA_BENCH_REPS");
  EXPECT_EQ(BenchReps(3), 3);
  setenv("ASTRAEA_BENCH_REPS", "7", 1);
  EXPECT_EQ(BenchReps(3), 7);
  unsetenv("ASTRAEA_BENCH_REPS");
}

// A bench record read from the command line `args` (argv[0] first).
BenchRecord RecordFrom(std::vector<std::string> args,
                       const std::vector<std::string>& switches = {},
                       const std::vector<std::string>& options = {}) {
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return BenchRecord("demo", static_cast<int>(argv.size()), argv.data(), switches, options);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchRecordTest, WritesPerfbenchKeysWithEveryDigit) {
  BenchRecord record = RecordFrom({"bench_demo"});
  record.Metric("speedup", 1.1, "x");
  record.Metric("latency", std::nan(""), "us");
  record.Check("passes", true, "fine");
  record.Check("fails", false, "said \"no\" at C:\\tmp");
  const std::map<std::string, std::string>& provenance = record.provenance();
  ASSERT_EQ(provenance.size(), 7u);
  EXPECT_EQ(provenance.at("host_cores"), std::to_string(std::thread::hardware_concurrency()));
  EXPECT_EQ(provenance.at("nn_kernels"), BatchedKernelVariant());
  EXPECT_EQ(provenance.at("policy"), PolicyIdentity());
  EXPECT_EQ(provenance.at("quick"), "false");
  EXPECT_FALSE(provenance.at("build_type").empty());
  EXPECT_FALSE(provenance.at("compiler").empty());
  EXPECT_EQ(provenance.count("cxx_flags"), 1u);
  EXPECT_EQ(record.ToJson(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"correct\": false,\n"
            "  \"provenance\": {\"build_type\": \"" +
                provenance.at("build_type") + "\", \"compiler\": \"" +
                provenance.at("compiler") + "\", \"cxx_flags\": \"" + provenance.at("cxx_flags") +
                "\", \"host_cores\": \"" + provenance.at("host_cores") +
                "\", \"nn_kernels\": \"" + provenance.at("nn_kernels") +
                "\", \"policy\": \"" + provenance.at("policy") +
                "\", \"quick\": \"false\"},\n"
                "  \"checks\": [\n"
                "    {\"name\": \"passes\", \"ok\": true, \"detail\": \"fine\"},\n"
                "    {\"name\": \"fails\", \"ok\": false, \"detail\": \"said \\\"no\\\" at "
                "C:\\\\tmp\"}\n"
                "  ],\n"
                "  \"metrics\": {\n"
                "    \"speedup\": {\"value\": 1.1000000000000001, \"unit\": \"x\"},\n"
                "    \"latency\": {\"value\": null, \"unit\": \"us\"}\n"
                "  }\n"
                "}\n");
}

TEST(BenchRecordTest, FailedCheckExitsOneAndStillWritesTheRecord) {
  const std::string path = testing::TempDir() + "bench_record_failed.json";
  BenchRecord record = RecordFrom({"bench_demo", "--out", path});
  record.Metric("speedup", 2.0, "x");
  record.Check("digests_match", true);
  record.Check("speedup_over_5x", false, "2.0x");
  testing::internal::CaptureStderr();
  EXPECT_EQ(record.Finish(), 1);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("speedup_over_5x"), std::string::npos);
  EXPECT_EQ(ReadFile(path), record.ToJson());
  std::remove(path.c_str());
}

TEST(BenchRecordTest, PassingChecksExitZeroAtTheOutPath) {
  const std::string path = testing::TempDir() + "bench_record_passed.json";
  BenchRecord record = RecordFrom({"bench_demo", "--quick", "--out", path});
  ASSERT_TRUE(record.args_ok());
  EXPECT_TRUE(record.quick());
  record.Check("digests_match", true);
  EXPECT_EQ(record.Finish(), 0);
  EXPECT_NE(ReadFile(path).find("\"correct\": true"), std::string::npos);
  std::remove(path.c_str());
  // A record without checks (bench_kernels') is correct.
  BenchRecord unchecked = RecordFrom({"bench_demo", "--out", path});
  EXPECT_EQ(unchecked.Finish(), 0);
  std::remove(path.c_str());
}

TEST(BenchRecordTest, UnwritableOutExitsOne) {
  BenchRecord record = RecordFrom({"bench_demo", "--out", "/nonexistent/dir/b.json"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(record.Finish(), 1);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("cannot write /nonexistent/dir/b.json"),
            std::string::npos);
}

TEST(BenchRecordTest, ReadsOneSpellingAndRejectsTheRest) {
  const BenchRecord record =
      RecordFrom({"bench_demo", "--real", "--traces", "dir"}, {"--real"}, {"--traces"});
  EXPECT_TRUE(record.args_ok());
  EXPECT_FALSE(record.quick());
  EXPECT_TRUE(record.Has("--real"));
  EXPECT_EQ(record.Value("--traces", "bundled"), "dir");
  EXPECT_EQ(record.Value("--out", "BENCH_demo.json"), "BENCH_demo.json");
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"bench_demo", "--out=b.json"}, {"bench_demo", "--out"},
        {"bench_demo", "--real"}, {"bench_demo", "--traces=dir"}}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(RecordFrom(args, {}, {"--traces"}).args_ok()) << args[1];
    EXPECT_NE(testing::internal::GetCapturedStderr().find(args[1]), std::string::npos);
  }
}

TEST(PolicyIdentityTest, NamesTheDistilledPolicyOrTheCheckpointBytes) {
  const char* env = std::getenv("ASTRAEA_MODEL");
  const std::string saved = env != nullptr ? env : "";
  unsetenv("ASTRAEA_MODEL");
  EXPECT_EQ(PolicyIdentity(), "distilled");
  testing::internal::CaptureStdout();
  PrintBenchHeader("Figure 0", "demo");
  EXPECT_NE(testing::internal::GetCapturedStdout().find("\ndemo\npolicy: distilled\n"),
            std::string::npos);
  EXPECT_EQ(RecordFrom({"bench_demo"}).provenance().at("policy"), "distilled");

  const std::string checkpoint =
      std::string(ASTRAEA_SOURCE_DIR) + "/models/astraea_policy_trained.ckpt";
  EXPECT_EQ(PolicyIdentity(checkpoint), checkpoint + " crc32=bb5b4c3c");
  setenv("ASTRAEA_MODEL", checkpoint.c_str(), 1);
  EXPECT_EQ(PolicyIdentity(), checkpoint + " crc32=bb5b4c3c");
  EXPECT_EQ(RecordFrom({"bench_demo"}).provenance().at("policy"), checkpoint + " crc32=bb5b4c3c");
  try {
    PolicyIdentity("/nonexistent/path.ckpt");
    ADD_FAILURE() << "a missing checkpoint has an identity";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/path.ckpt"), std::string::npos)
        << e.what();
  }
  if (saved.empty()) {
    unsetenv("ASTRAEA_MODEL");
  } else {
    setenv("ASTRAEA_MODEL", saved.c_str(), 1);
  }
}

}  // namespace
}  // namespace astraea
