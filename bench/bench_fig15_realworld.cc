// Figure 15 — real-world Internet experiments (intra- and inter-continental
// paths), reproduced on emulated WAN paths per the DESIGN.md substitution:
// stochastic cross traffic (on/off CUBIC flows), light non-congestive loss
// and a shared bottleneck. Reported per scheme: average throughput and mean
// one-way delay (rtt/2), the two axes of the paper's frontier plot.
//
// `--real` switches to the real-socket validation mode (DESIGN.md §13): each
// WAN profile is run twice with a single Astraea flow — once in the discrete
// simulator, once over real kernel UDP sockets through the userspace link
// emulator at the same bandwidth/RTT/buffer/loss — and the two are compared
// on throughput and p95 RTT. This is the sim-to-real transfer check: the
// same policy and the same MtpReport contract must produce comparable
// behavior on both planes. Bandwidth is capped at 100 Mbps in this mode (for
// both planes, so the comparison stays apples-to-apples): the benchmark
// validates the data plane's control behavior, not the host's UDP packet
// rate. The comparison is written as a record to BENCH_fig15_real.json (--out
// PATH overrides). Four checks fail the run: a real transfer that fails or
// accepts a corrupt frame, or a throughput or p95-RTT ratio (real / sim)
// outside [0.5, 2].

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/astraea_controller.h"
#include "src/core/policy.h"
#include "src/eval/bench_record.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"
#include "src/net/loopback.h"
#include "src/util/stats.h"

namespace astraea {
namespace {

struct WanProfile {
  const char* name;
  RateBps bandwidth;
  TimeNs rtt;
  double loss;
  int cross_flows;
};

// ------------------------------------------------------------- --real mode

struct PlaneResult {
  double throughput_mbps = 0.0;
  double rtt_p95_ms = 0.0;
};

PlaneResult RunSimPlane(const WanProfile& profile, RateBps bandwidth, TimeNs until,
                        TimeNs warmup) {
  DumbbellConfig config;
  config.bandwidth = bandwidth;
  config.base_rtt = profile.rtt;
  config.buffer_bdp = 0.3;
  config.random_loss = profile.loss;
  config.seed = 950;
  DumbbellScenario scenario(config);
  // Match the real plane's controller configuration (a single flow owns its
  // RTT floor, so the fresh-floor drain skip applies on both planes).
  scenario.scheme_options().astraea_hp.skip_drain_on_fresh_floor = true;
  scenario.AddFlow("astraea", 0);
  scenario.Run(until);

  PlaneResult result;
  result.throughput_mbps = FlowMeanThroughputs(scenario.network(), warmup, until)[0];
  std::vector<double> rtts;
  for (const auto& [t, v] : scenario.network().flow_stats(0).rtt_ms.points()) {
    if (t >= warmup && t < until) {
      rtts.push_back(v);
    }
  }
  result.rtt_p95_ms = rtts.empty() ? 0.0 : EmpiricalCdf(std::move(rtts)).Quantile(0.95);
  return result;
}

PlaneResult RunRealPlane(const WanProfile& profile, RateBps bandwidth, TimeNs duration,
                         net::LoopbackResult* raw) {
  net::LoopbackConfig config;
  config.shaped = true;
  config.emulator.rate = bandwidth;
  config.emulator.one_way_delay = profile.rtt / 2;
  config.emulator.buffer_bytes = static_cast<uint64_t>(
      0.3 * static_cast<double>(bandwidth) / 8.0 * ToSeconds(profile.rtt));
  config.emulator.random_loss = profile.loss;
  config.emulator.seed = 950;
  config.sender.total_bytes = 0;  // stream until the clock runs out
  config.sender.max_runtime = duration;
  config.receiver.idle_timeout = duration + Seconds(10.0);
  auto policy = LoadDefaultPolicy("");
  config.make_cc = [policy] {
    AstraeaHyperparameters hp;
    hp.skip_drain_on_fresh_floor = true;
    return std::make_unique<AstraeaController>(policy, hp);
  };
  const net::LoopbackResult result = net::RunLoopbackTransfer(config);
  if (raw != nullptr) {
    *raw = result;
  }
  PlaneResult out;
  out.throughput_mbps = result.sender.goodput_bps() / 1e6;
  out.rtt_p95_ms = result.sender.rtt_p95_ms;
  return out;
}

double Ratio(double real, double sim) { return sim > 0.0 ? real / sim : 0.0; }

int RealMain(BenchRecord* record) {
  // Real sockets burn wall-clock time: keep runs short. The sim plane uses
  // the same horizon so MTP sample counts match.
  const TimeNs duration = Seconds(record->quick() ? 8.0 : 20.0);
  const TimeNs warmup = Seconds(2.0);

  PrintBenchHeader("Figure 15 — sim-vs-real data plane",
                   "Single Astraea flow per WAN profile, discrete simulator vs real "
                   "kernel UDP sockets through the userspace link emulator at identical "
                   "path parameters (bandwidth capped at 100 Mbps on both planes)");
  ConsoleTable table({"profile", "plane", "thr (Mbps)", "p95 RTT (ms)", "thr ratio",
                      "rtt ratio"});

  const WanProfile profiles[] = {
      {"intra-continental", Mbps(300), Milliseconds(25), 0.0002, 2},
      {"inter-continental", Mbps(1000), Milliseconds(150), 0.0005, 3},
  };
  record->Metric("duration_s", ToSeconds(duration), "s");
  bool transfers_ok = true, clean = true, thr_ok = true, rtt_ok = true;
  std::string transfers, corrupt, thr_ratios, rtt_ratios;
  const auto append = [](std::string* list, const std::string& name, const std::string& item) {
    *list += (list->empty() ? "" : ", ") + name + " " + item;
  };
  for (const WanProfile& profile : profiles) {
    const RateBps bandwidth = std::min<RateBps>(profile.bandwidth, Mbps(100));
    const PlaneResult sim = RunSimPlane(profile, bandwidth, duration, warmup);
    net::LoopbackResult raw;
    const PlaneResult real = RunRealPlane(profile, bandwidth, duration, &raw);
    const double thr_ratio = Ratio(real.throughput_mbps, sim.throughput_mbps);
    const double rtt_ratio = Ratio(real.rtt_p95_ms, sim.rtt_p95_ms);
    table.AddRow({profile.name, "sim", ConsoleTable::Num(sim.throughput_mbps, 1),
                  ConsoleTable::Num(sim.rtt_p95_ms, 1), "", ""});
    table.AddRow({profile.name, "real", ConsoleTable::Num(real.throughput_mbps, 1),
                  ConsoleTable::Num(real.rtt_p95_ms, 1), ConsoleTable::Num(thr_ratio, 2),
                  ConsoleTable::Num(rtt_ratio, 2)});
    const std::string key = std::string("profiles.") + profile.name + ".";
    record->Metric(key + "sim.throughput_mbps", sim.throughput_mbps, "Mbps");
    record->Metric(key + "sim.rtt_p95_ms", sim.rtt_p95_ms, "ms");
    record->Metric(key + "real.throughput_mbps", real.throughput_mbps, "Mbps");
    record->Metric(key + "real.rtt_p95_ms", real.rtt_p95_ms, "ms");
    record->Metric(key + "real.corrupt_frames", static_cast<double>(raw.receiver.corrupt_frames),
                   "count");
    record->Metric(key + "real.bytes_acked", static_cast<double>(raw.sender.bytes_acked), "B");
    record->Metric(key + "real.rto_fires", static_cast<double>(raw.sender.rto_fires), "count");
    record->Metric(key + "throughput_ratio", thr_ratio, "ratio");
    record->Metric(key + "rtt_p95_ratio", rtt_ratio, "ratio");
    transfers_ok &= raw.ok;
    append(&transfers, profile.name, raw.ok ? "ok" : raw.error);
    clean &= raw.receiver.corrupt_frames == 0;
    append(&corrupt, profile.name, std::to_string(raw.receiver.corrupt_frames));
    thr_ok &= thr_ratio >= 0.5 && thr_ratio <= 2.0;
    append(&thr_ratios, profile.name, ConsoleTable::Num(thr_ratio));
    rtt_ok &= rtt_ratio >= 0.5 && rtt_ratio <= 2.0;
    append(&rtt_ratios, profile.name, ConsoleTable::Num(rtt_ratio));
  }
  table.Print();
  record->Check("real.transfer_ok", transfers_ok, transfers);
  record->Check("real.corrupt_frames_zero", clean, corrupt);
  record->Check("throughput_ratio_within_2x", thr_ok, thr_ratios);
  record->Check("rtt_p95_ratio_within_2x", rtt_ok, rtt_ratios);
  return record->Finish();
}

int Main(int argc, char** argv) {
  BenchRecord record("fig15_real", argc, argv, {"--real"});
  if (!record.args_ok()) {
    return 1;
  }
  if (record.Has("--real")) {
    return RealMain(&record);
  }
  const TimeNs until = Seconds(record.quick() ? 30.0 : 60.0);
  const int reps = BenchReps(2);

  // Residential->AWS paths are mostly idle with episodic interference and
  // moderate (sub-BDP) switch buffers; heavy persistent competition would
  // make throughput reflect the fight, not the scheme.
  const WanProfile profiles[] = {
      {"intra-continental", Mbps(300), Milliseconds(25), 0.0002, 2},
      {"inter-continental", Mbps(1000), Milliseconds(150), 0.0005, 3},
  };

  for (const WanProfile& profile : profiles) {
    PrintBenchHeader(std::string("Figure 15 — ") + profile.name,
                     "Emulated WAN path with stochastic cross traffic (see DESIGN.md "
                     "substitution table)");
    ConsoleTable table({"scheme", "avg thr (Mbps)", "one-way delay (ms)", "loss %"});
    for (const char* scheme :
         {"cubic", "vegas", "bbr", "copa", "remy", "vivace", "aurora", "orca", "astraea"}) {
      double thr = 0.0;
      double delay = 0.0;
      double loss = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        DumbbellConfig config;
        config.bandwidth = profile.bandwidth;
        config.base_rtt = profile.rtt;
        config.buffer_bdp = 0.3;
        config.random_loss = profile.loss;
        config.seed = 900 + static_cast<uint64_t>(rep);
        DumbbellScenario scenario(config);
        scenario.AddFlow(scheme, 0);
        // On/off cross traffic: short CUBIC bursts through the same bottleneck.
        Rng cross(40 + static_cast<uint64_t>(rep));
        for (int i = 0; i < profile.cross_flows; ++i) {
          TimeNs t = Seconds(cross.Uniform(0.0, 6.0));
          while (t < until) {
            const TimeNs burst = Seconds(cross.Uniform(1.0, 3.0));
            scenario.AddFlow("cubic", t, burst);
            t += burst + Seconds(cross.Uniform(5.0, 15.0));
          }
        }
        scenario.Run(until);
        thr += FlowMeanThroughputs(scenario.network(), Seconds(2.0), until)[0] / reps;
        // One-way delay of the evaluated flow (rtt / 2, as in Pantheon plots).
        const double rtt_ms = scenario.network().flow_stats(0).rtt_ms.MeanOver(Seconds(2.0), until);
        delay += rtt_ms / 2.0 / reps;
        loss += 100.0 * AggregateLossRatio(scenario.network()) / reps;
      }
      table.AddRow({scheme, ConsoleTable::Num(thr, 1), ConsoleTable::Num(delay, 1),
                    ConsoleTable::Num(loss, 2)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("paper: Astraea defines the frontier — e.g. inter-continental 731.8 Mbps, "
              "1.6x Vivace, 3.1x Orca; BBR highest throughput but with latency inflation\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
