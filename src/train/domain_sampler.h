// Domain randomization for generalist training (paper §3.2, DESIGN.md §14.4).
//
// SampleEpisode() covers Table 3 (bandwidth, RTT, buffer, flow count/arrival
// randomization); the DomainSampler layers the rest of the repo's scenario
// families on top so one policy trains across everything the bench suite
// evaluates: iid random loss (lossy goldens, fig. 9), RED and CoDel AQMs
// (bench_aqm_interaction), and LTE-like time-varying rate traces
// (bench_fig13_cellular / fig20 satellite). Every draw comes from the
// caller's Rng in a fixed, documented order, so a sampler shared by N actor
// streams is exactly as deterministic as the streams themselves.

#ifndef SRC_TRAIN_DOMAIN_SAMPLER_H_
#define SRC_TRAIN_DOMAIN_SAMPLER_H_

#include <string>

#include "src/core/multi_flow_env.h"
#include "src/core/training_config.h"
#include "src/util/rng.h"

namespace astraea {

struct DomainRanges {
  TrainingEnvRanges base;  // Table 3

  // Probability an episode carries iid wire loss; when it does, the rate is
  // Uniform(loss_lo, loss_hi). Mirrors the lossy golden family.
  double loss_probability = 0.0;
  double loss_lo = 0.001;
  double loss_hi = 0.02;

  // AQM selection: with these probabilities the bottleneck runs RED or CoDel
  // instead of DropTail (capacity always mirrors the DropTail sizing).
  double red_probability = 0.0;
  double codel_probability = 0.0;

  // Probability the bottleneck rate follows an LTE-like trace oscillating in
  // [bandwidth * (1 - rate_variation), bandwidth] instead of a constant.
  double trace_probability = 0.0;
  double rate_variation = 0.5;

  // Length stamped on every sampled episode (and the horizon rate traces are
  // generated for). The trainer sets this from its own config.
  TimeNs episode_length = Seconds(30.0);

  // Table 3 only — astraea_train's default.
  static DomainRanges TableThree();
  // Full scenario-family coverage (astraea_train --randomize).
  static DomainRanges Extended();
};

class DomainSampler {
 public:
  explicit DomainSampler(DomainRanges ranges) : ranges_(ranges) {}

  struct Draw {
    EnvEpisodeConfig config;
    std::string family;  // "droptail", "droptail+loss", "red", "codel", "lte-trace", ...
  };

  // Draw order (fixed; tests pin it): base episode via SampleEpisode, then
  // loss gate [+ rate], then one uniform AQM selector draw, then trace gate
  // [+ granularity]. A given Rng stream therefore yields the same episode
  // sequence whatever worker executes it.
  Draw SampleDraw(Rng* rng) const;
  EnvEpisodeConfig Sample(Rng* rng) const { return SampleDraw(rng).config; }

  const DomainRanges& ranges() const { return ranges_; }

 private:
  DomainRanges ranges_;
};

}  // namespace astraea

#endif  // SRC_TRAIN_DOMAIN_SAMPLER_H_
