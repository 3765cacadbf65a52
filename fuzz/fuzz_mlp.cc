// Fuzz target: the Mlp parameter stream (src/nn/mlp.h), the one format every
// actor file is read in (LoadActorFile). Contract under arbitrary bytes:
// Mlp::Load either returns a network or throws SerializationError — never
// crashes and never allocates from unvalidated dimension fields.

#include <cstdint>
#include <sstream>
#include <string>

#include "src/nn/mlp.h"
#include "src/util/serialization.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::istringstream in(std::string(reinterpret_cast<const char*>(data), size));
  try {
    astraea::BinaryReader reader(&in);
    (void)astraea::Mlp::Load(&reader);
  } catch (const astraea::SerializationError&) {
    // Expected for malformed input.
  }
  return 0;
}
