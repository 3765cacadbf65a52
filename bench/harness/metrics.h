// Forward to the window metrics in the evaluation library
// (src/eval/window_metrics.h); see scenario.h for why it stays.

#ifndef BENCH_HARNESS_METRICS_H_
#define BENCH_HARNESS_METRICS_H_

#include "src/eval/window_metrics.h"

#endif  // BENCH_HARNESS_METRICS_H_
