#include "src/train/domain_sampler.h"

#include <algorithm>
#include <memory>

#include "src/eval/scenario.h"

namespace astraea {

DomainRanges DomainRanges::TableThree() { return DomainRanges{}; }

DomainRanges DomainRanges::Extended() {
  DomainRanges r;
  r.loss_probability = 0.3;
  r.red_probability = 0.15;
  r.codel_probability = 0.15;
  r.trace_probability = 0.2;
  return r;
}

DomainSampler::Draw DomainSampler::SampleDraw(Rng* rng) const {
  Draw draw;
  draw.config = SampleEpisode(ranges_.base, rng);
  EnvEpisodeConfig& config = draw.config;
  config.episode_length = ranges_.episode_length;

  // When no extension family is enabled (TableThree), consume no extra draws
  // at all — the stream stays byte-identical to a plain SampleEpisode() call,
  // so Table-3 training samples exactly the paper's episode distribution.
  const bool any_extension = ranges_.loss_probability > 0.0 || ranges_.red_probability > 0.0 ||
                             ranges_.codel_probability > 0.0 || ranges_.trace_probability > 0.0;
  if (!any_extension) {
    draw.family = "droptail";
    return draw;
  }

  bool lossy = false;
  if (rng->Bernoulli(ranges_.loss_probability)) {
    lossy = true;
    config.random_loss = rng->Uniform(ranges_.loss_lo, ranges_.loss_hi);
  }

  // 2. AQM selector: one uniform draw splits [0,1) into RED / CoDel / DropTail
  //    bands, so enabling one family does not shift another family's stream.
  Qdisc qdisc = Qdisc::kDropTail;
  const double aqm = rng->Uniform();
  if (aqm < ranges_.red_probability) {
    qdisc = Qdisc::kRed;
  } else if (aqm < ranges_.red_probability + ranges_.codel_probability) {
    qdisc = Qdisc::kCoDel;
  }
  config.queue_factory = MakeQueueFactory(
      qdisc, BdpBufferBytes(config.bandwidth, config.base_rtt, config.buffer_bdp));

  // 3. Rate-variation gate: an LTE-like trace oscillating below the sampled
  //    bandwidth. The trace is generated from a stream forked off the episode
  //    seed (not the sampler stream) so its length does not depend on
  //    granularity draws — one gate draw + one granularity draw, always.
  bool traced = false;
  if (rng->Bernoulli(ranges_.trace_probability)) {
    traced = true;
    const TimeNs granularity =
        Milliseconds(static_cast<int64_t>(rng->UniformInt(100, 500)));
    const RateBps floor = config.bandwidth * std::max(0.0, 1.0 - ranges_.rate_variation);
    Rng trace_rng(Rng::DeriveSeed(config.seed, 0x7E2CEull));
    config.trace = std::make_shared<RateTrace>(MakeLteLikeTrace(
        config.episode_length + Seconds(60.0), granularity, floor, config.bandwidth, &trace_rng));
  }

  draw.family = traced ? "lte-trace" : QdiscName(qdisc);
  if (lossy) {
    draw.family += "+loss";
  }
  return draw;
}

}  // namespace astraea
