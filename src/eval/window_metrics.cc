#include "src/eval/window_metrics.h"

#include <algorithm>
#include <sstream>

#include "src/util/stats.h"

namespace astraea {

namespace {

// One past the last flow id of `flows` that exists in `net`.
int RangeEnd(const Network& net, FlowRange flows) {
  return std::min(flows.end, static_cast<int>(net.flow_count()));
}

// Is the flow transmitting at time t?
bool FlowActiveAt(const FlowSpec& spec, TimeNs t) {
  const TimeNs stop = spec.duration >= 0 ? spec.start + spec.duration : INT64_MAX;
  return t >= spec.start && t < stop;
}

std::vector<double> CollectRtts(const Network& net, TimeNs begin, TimeNs end, FlowRange flows) {
  std::vector<double> rtts;
  for (int id = flows.begin; id < RangeEnd(net, flows); ++id) {
    for (const auto& [t, v] : net.flow_stats(id).rtt_ms.points()) {
      if (t >= begin && t < end) {
        rtts.push_back(v);
      }
    }
  }
  return rtts;
}

}  // namespace

std::vector<double> JainPerTimeslot(const Network& net, TimeNs begin, TimeNs end, TimeNs slot,
                                    FlowRange flows) {
  std::vector<double> out;
  for (TimeNs t = begin; t + slot <= end; t += slot) {
    std::vector<double> rates;
    for (int id = flows.begin; id < RangeEnd(net, flows); ++id) {
      if (FlowActiveAt(net.flow_spec(id), t)) {
        rates.push_back(net.flow_stats(id).throughput_mbps.MeanOver(t, t + slot));
      }
    }
    if (rates.size() >= 2) {
      out.push_back(JainIndex(rates));
    }
  }
  return out;
}

double AverageJain(const Network& net, TimeNs begin, TimeNs end, TimeNs slot, FlowRange flows) {
  const std::vector<double> jains = JainPerTimeslot(net, begin, end, slot, flows);
  return jains.empty() ? 1.0 : Mean(jains);
}

double LinkUtilization(const Network& net, size_t link_index, TimeNs begin, TimeNs end,
                       FlowRange flows) {
  if (end <= begin) {
    return 0.0;
  }
  double delivered_bits = 0.0;
  for (int id = flows.begin; id < RangeEnd(net, flows); ++id) {
    const FlowSpec& spec = net.flow_spec(id);
    const TimeNs f_begin = std::max(begin, spec.start);
    const TimeNs f_end =
        std::min(end, spec.duration >= 0 ? spec.start + spec.duration : end);
    if (f_end <= f_begin) {
      continue;
    }
    const double mean_mbps = net.flow_stats(id).throughput_mbps.MeanOver(f_begin, f_end);
    delivered_bits += mean_mbps * 1e6 * ToSeconds(f_end - f_begin);
  }
  const double capacity_bits = net.link(link_index).provider().CapacityBits(begin, end);
  return capacity_bits > 0.0 ? delivered_bits / capacity_bits : 0.0;
}

double MeanRttMs(const Network& net, TimeNs begin, TimeNs end, FlowRange flows) {
  return Mean(CollectRtts(net, begin, end, flows));
}

double P95RttMs(const Network& net, TimeNs begin, TimeNs end, FlowRange flows) {
  return Percentile(CollectRtts(net, begin, end, flows), 95.0);
}

double AggregateLossRatio(const Network& net, FlowRange flows) {
  uint64_t lost = 0;
  uint64_t acked = 0;
  for (int id = flows.begin; id < RangeEnd(net, flows); ++id) {
    lost += net.flow_stats(id).bytes_lost;
    acked += net.flow_stats(id).bytes_acked;
  }
  const uint64_t total = lost + acked;
  return total == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(total);
}

double LostPerSentRatio(const Network& net, FlowRange flows) {
  uint64_t lost = 0;
  uint64_t sent = 0;
  for (int id = flows.begin; id < RangeEnd(net, flows); ++id) {
    lost += net.flow_stats(id).bytes_lost;
    sent += net.flow_stats(id).bytes_sent;
  }
  return sent == 0 ? 0.0 : static_cast<double>(lost) / static_cast<double>(sent);
}

std::vector<double> FlowMeanThroughputs(const Network& net, TimeNs begin, TimeNs end,
                                        FlowRange flows) {
  std::vector<double> out;
  for (int id = flows.begin; id < RangeEnd(net, flows); ++id) {
    out.push_back(net.flow_stats(id).throughput_mbps.MeanOver(begin, end));
  }
  return out;
}

double WorstFlowShare(const std::vector<double>& throughputs_mbps) {
  if (throughputs_mbps.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double worst = throughputs_mbps.front();
  for (const double thr : throughputs_mbps) {
    sum += thr;
    worst = std::min(worst, thr);
  }
  const double fair = sum / static_cast<double>(throughputs_mbps.size());
  return fair > 0.0 ? worst / fair : 1.0;
}

double HarmIndex(double baseline_mbps, double actual_mbps) {
  if (baseline_mbps <= 0.0) {
    return 0.0;
  }
  return std::max(0.0, 1.0 - actual_mbps / baseline_mbps);
}

std::string FlowStatsCsv(const Network& net) {
  std::ostringstream out;
  out << "time_s,flow,scheme,throughput_mbps,rtt_ms,cwnd_pkts\n";
  for (size_t i = 0; i < net.flow_count(); ++i) {
    const int id = static_cast<int>(i);
    const FlowStats& stats = net.flow_stats(id);
    const std::string& scheme = net.flow_spec(id).scheme;
    for (const auto& [t, thr] : stats.throughput_mbps.points()) {
      out << ToSeconds(t) << ',' << i << ',' << scheme << ',' << thr << ','
          << stats.rtt_ms.ValueAt(t) << ',' << stats.cwnd_packets.ValueAt(t) << "\n";
    }
  }
  return out.str();
}

ConvergenceMeasurement MeasureConvergence(const Network& net, int flow_id, TimeNs event_time,
                                          double fair_share_mbps, double tol, TimeNs hold,
                                          TimeNs measure_until) {
  ConvergenceMeasurement m;
  m.event_time = event_time;
  m.flow_id = flow_id;
  m.fair_share_mbps = fair_share_mbps;

  const TimeSeries& thr = net.flow_stats(flow_id).throughput_mbps;
  const TimeNs entered = thr.FirstStableEntry(event_time, fair_share_mbps, tol, hold);
  if (entered < 0) {
    m.convergence_time = -1;
    m.stability_mbps = thr.StdDevOver(event_time, measure_until);
    return m;
  }
  m.convergence_time = entered - event_time;
  m.stability_mbps = thr.StdDevOver(entered, measure_until);
  return m;
}

}  // namespace astraea
