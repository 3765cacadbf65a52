// Forward to the dumbbell builder in the evaluation library
// (src/eval/scenario.h). perfbench compiles this directory's scenario.cc and
// metrics.cc by path, so both pairs stay as forwards.

#ifndef BENCH_HARNESS_SCENARIO_H_
#define BENCH_HARNESS_SCENARIO_H_

#include "src/eval/scenario.h"

#endif  // BENCH_HARNESS_SCENARIO_H_
