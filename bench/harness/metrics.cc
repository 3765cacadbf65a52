// No definitions: they live in src/eval/window_metrics.cc, part of
// astraea_core.
#include "bench/harness/metrics.h"
