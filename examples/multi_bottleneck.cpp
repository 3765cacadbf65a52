// Multi-bottleneck demo: the Fig. 11 parking-lot topology built directly
// against the Network API. Flow set 1 crosses only the 100 Mbps Link 1;
// flow set 2 continues through the 20 Mbps Link 2. Astraea's shares follow
// the max-min ideal.

#include <cstdio>

#include "src/core/schemes.h"
#include "src/eval/window_metrics.h"

int main(int argc, char** argv) {
  using namespace astraea;
  const int fs1_flows = argc > 1 ? std::atoi(argv[1]) : 4;

  Network net(1);
  LinkConfig link1;
  link1.name = "link1";
  link1.rate = Mbps(100);
  link1.propagation_delay = Milliseconds(15);
  link1.buffer_bytes = 2 * BdpBytes(Mbps(100), Milliseconds(30));
  net.AddLink(link1);

  LinkConfig link2;
  link2.name = "link2";
  link2.rate = Mbps(20);
  link2.propagation_delay = Milliseconds(1);
  link2.buffer_bytes = 2 * BdpBytes(Mbps(20), Milliseconds(32));
  net.AddLink(link2);

  SchemeOptions options;
  const CcFactory astraea = MakeSchemeFactory("astraea", &options);
  for (int i = 0; i < fs1_flows; ++i) {
    FlowSpec spec;
    spec.scheme = "fs1";
    spec.make_cc = astraea;
    spec.link_path = {0};
    net.AddFlow(spec);
  }
  for (int i = 0; i < 2; ++i) {
    FlowSpec spec;
    spec.scheme = "fs2";
    spec.make_cc = astraea;
    spec.link_path = {0, 1};  // both bottlenecks
    net.AddFlow(spec);
  }

  const TimeNs until = Seconds(40.0);
  net.Run(until);

  const auto thr = FlowMeanThroughputs(net, until / 3, until);
  const double fs2_ideal = fs1_flows < 8 ? 10.0 : 100.0 / (fs1_flows + 2);
  const double fs1_ideal = fs1_flows < 8 ? 80.0 / fs1_flows : 100.0 / (fs1_flows + 2);
  std::printf("topology: FS-1 (%d flows) on Link1 only; FS-2 (2 flows) on Link1+Link2\n\n",
              fs1_flows);
  for (size_t i = 0; i < thr.size(); ++i) {
    const bool is_fs1 = i < static_cast<size_t>(fs1_flows);
    std::printf("flow %zu [%s]  %6.2f Mbps  (max-min ideal %.2f)\n", i,
                is_fs1 ? "FS-1" : "FS-2", thr[i], is_fs1 ? fs1_ideal : fs2_ideal);
  }
  std::printf("\nlink1 delivered %.1f Mbps, link2 delivered %.1f Mbps\n",
              ToMbps(net.link(0).delivered_bytes() * 8.0 / ToSeconds(until)),
              ToMbps(net.link(1).delivered_bytes() * 8.0 / ToSeconds(until)));
  return 0;
}
