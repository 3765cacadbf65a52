// Deterministic random number generation.
//
// Every stochastic component (flow generator, random loss, exploration noise,
// weight init) owns an Rng forked from a scenario-level seed, so results are
// reproducible and components do not perturb each other's streams.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <sstream>

#include "src/util/serialization.h"

namespace astraea {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Forks an independent stream; the child is decorrelated from the parent by
  // hashing the parent's next output with a distinct constant.
  Rng Fork() {
    const uint64_t s = engine_() * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL;
    return Rng(s);
  }

  // Stateless splittable seed derivation (SplitMix64 finalizer): maps a
  // (stream, index) pair to a decorrelated 64-bit seed. Unlike additive bases
  // (stream_base + index), two distinct streams can never collide however
  // large the index grows, and the result does not depend on call order — the
  // property the parallel experiment harness relies on for rep seeds.
  static uint64_t DeriveSeed(uint64_t stream, uint64_t index) {
    uint64_t z = stream + 0x9E3779B97F4A7C15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  double Uniform() { return uniform_(engine_); }  // [0, 1)
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  // Uniform integer in [lo, hi], inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(engine_);
  }

  // Scales a standard-normal draw the way libstdc++'s normal_distribution
  // does, so draws are bit-identical to normal_distribution(mean, stddev)
  // and stddev == 0 (noise-free evaluation) is legal: it returns `mean` and
  // still advances the engine exactly as a nonzero stddev would.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> standard;
    return standard(engine_) * stddev + mean;
  }

  // Exponential inter-arrival sample with the given mean (for Poisson flows).
  double Exponential(double mean) {
    std::exponential_distribution<double> d(1.0 / mean);
    return d(engine_);
  }

  bool Bernoulli(double p) { return Uniform() < p; }

  std::mt19937_64& engine() { return engine_; }

  // Full stream-state capture for deterministic resume: serializes the
  // mt19937_64 engine and the cached uniform distribution via their standard
  // text representations (exact — engine state is integral).
  void SaveState(BinaryWriter* writer) const {
    std::ostringstream os;
    os << engine_ << ' ' << uniform_;
    writer->WriteString(os.str());
  }

  void LoadState(BinaryReader* reader) {
    std::istringstream is(reader->ReadString());
    is >> engine_ >> uniform_;
    if (!is) {
      throw SerializationError("corrupt RNG state in checkpoint");
    }
  }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

}  // namespace astraea

#endif  // SRC_UTIL_RNG_H_
