// Quickstart: simulate one Astraea flow on an emulated bottleneck and print
// what it achieves. This is the smallest useful program against the public
// API: build a Network, add a link, attach a flow driven by a
// CongestionController, run, read statistics.

#include <cstdio>
#include <memory>

#include "src/core/astraea_controller.h"
#include "src/core/policy.h"
#include "src/sim/network.h"

int main() {
  using namespace astraea;

  // 1. A network with one bottleneck: 100 Mbps, 30 ms base RTT, 1 BDP buffer.
  Network net(/*seed=*/1);
  LinkConfig link;
  link.rate = Mbps(100);
  link.propagation_delay = Milliseconds(15);
  link.buffer_bytes = BdpBytes(Mbps(100), Milliseconds(30));
  net.AddLink(link);

  // 2. One Astraea flow. LoadDefaultPolicy() runs the trained checkpoint that
  //    ASTRAEA_MODEL names, else the distilled reference policy.
  const std::shared_ptr<const Policy> policy = LoadDefaultPolicy();
  FlowSpec flow;
  flow.scheme = "astraea";
  flow.make_cc = [policy] { return std::make_unique<AstraeaController>(policy); };
  const int flow_id = net.AddFlow(flow);

  // 3. Run 20 simulated seconds.
  net.Run(Seconds(20.0));

  // 4. Read the results.
  const FlowStats& stats = net.flow_stats(flow_id);
  std::printf("policy:          %s\n", policy->name().c_str());
  std::printf("mean throughput: %.1f Mbps (link: 100)\n",
              stats.throughput_mbps.MeanOver(Seconds(2.0), Seconds(20.0)));
  std::printf("mean RTT:        %.1f ms (base: 30)\n",
              stats.rtt_ms.MeanOver(Seconds(2.0), Seconds(20.0)));
  std::printf("bytes acked:     %.1f MB, lost: %.3f MB\n", stats.bytes_acked / 1e6,
              stats.bytes_lost / 1e6);
  return 0;
}
