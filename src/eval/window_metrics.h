// Evaluation metrics matching §5, computed over a time window of a finished
// Network: per-timeslot Jain indices, link utilization, latency and loss
// summaries, and convergence time / stability around flow events (Fig. 12's
// definitions). Every per-flow metric reads a FlowRange, so a caller can
// score only its own flows (say, the Astraea flows and not the cross
// traffic).

#ifndef SRC_EVAL_WINDOW_METRICS_H_
#define SRC_EVAL_WINDOW_METRICS_H_

#include <limits>
#include <string>
#include <vector>

#include "src/sim/network.h"

namespace astraea {

// Flow ids [begin, end); `end` is clamped to the flow count, so the default
// reads every flow.
struct FlowRange {
  int begin = 0;
  int end = std::numeric_limits<int>::max();
};

// Jain index of the throughputs of the flows active at each slot's start,
// sampled every `slot` over [begin, end); slots with fewer than two active
// flows are skipped (§5.1.1).
std::vector<double> JainPerTimeslot(const Network& net, TimeNs begin, TimeNs end, TimeNs slot,
                                    FlowRange flows = {});

// Mean of JainPerTimeslot (the "average Jain index" reported in Figs. 9/10);
// 1.0 when no slot qualifies.
double AverageJain(const Network& net, TimeNs begin, TimeNs end, TimeNs slot,
                   FlowRange flows = {});

// Fraction of the link's capacity over [begin, end) that the flows delivered.
double LinkUtilization(const Network& net, size_t link_index, TimeNs begin, TimeNs end,
                       FlowRange flows = {});

// Mean and p95 of the flows' per-MTP RTT samples (ms) in [begin, end); 0 when
// there are none.
double MeanRttMs(const Network& net, TimeNs begin, TimeNs end, FlowRange flows = {});
double P95RttMs(const Network& net, TimeNs begin, TimeNs end, FlowRange flows = {});

// Two loss definitions over the whole run, which differ in the denominator:
// lost / (lost + acked) bytes,
double AggregateLossRatio(const Network& net, FlowRange flows = {});
// and lost / sent bytes (sent also counts the bytes still in flight).
double LostPerSentRatio(const Network& net, FlowRange flows = {});

// Per-flow mean throughput (Mbps) over [begin, end), in flow-id order.
std::vector<double> FlowMeanThroughputs(const Network& net, TimeNs begin, TimeNs end,
                                        FlowRange flows = {});

// Fair-Aurora-style fairness scores for the cross-scheme competition matrix.
//
// Worst-flow share: min(throughput) / fair share (= mean). 1.0 is perfectly
// fair; 0.0 means some flow was starved outright. Complements Jain, which
// can stay high while one of many flows starves.
double WorstFlowShare(const std::vector<double>& throughputs_mbps);

// Harm of the competition on a flow: how far `actual` falls below the
// `baseline` it achieves against an equal-RTT copy of itself (the
// self-competition fair share). 0 = unharmed, 1 = starved; negative harm
// (doing better than baseline) clamps to 0.
double HarmIndex(double baseline_mbps, double actual_mbps);

// Every flow's per-MTP series as CSV text (columns: time_s, flow, scheme,
// throughput_mbps, rtt_ms, cwnd_pkts) for offline plotting; run_scenario
// --csv writes it with cli::WriteOutputFile.
std::string FlowStatsCsv(const Network& net);

// Fig. 12 definitions. A "flow event" is an arrival or departure; after each
// event the *younger* affected flows should converge to the new fair share.
struct ConvergenceMeasurement {
  TimeNs event_time = 0;
  int flow_id = -1;
  double fair_share_mbps = 0.0;
  TimeNs convergence_time = -1;     // event -> sustained entry into +-tol band
  double stability_mbps = 0.0;      // throughput stddev, see below
};

// Measures convergence of flow `flow_id` after `event_time` toward
// `fair_share_mbps` with tolerance `tol` (paper: 0.10); the band must hold
// for `hold` (we use 1s) to count. Stability is the throughput stddev from
// convergence (from the event if the flow never converged) to
// `measure_until`.
ConvergenceMeasurement MeasureConvergence(const Network& net, int flow_id, TimeNs event_time,
                                          double fair_share_mbps, double tol, TimeNs hold,
                                          TimeNs measure_until);

}  // namespace astraea

#endif  // SRC_EVAL_WINDOW_METRICS_H_
