// No definitions: they live in src/eval/scenario.cc, part of astraea_core.
#include "bench/harness/scenario.h"
