#include "src/train/domain_sampler.h"

#include <algorithm>
#include <memory>

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
  std::string qdisc = "droptail";
  const double aqm = rng->Uniform();
  const uint64_t capacity = std::max<uint64_t>(
      static_cast<uint64_t>(config.buffer_bdp *
                            static_cast<double>(BdpBytes(config.bandwidth, config.base_rtt))),
      3000);
  if (aqm < ranges_.red_probability) {
    qdisc = "red";
    config.queue_factory = [capacity](Rng red_rng) -> std::unique_ptr<QueueDiscipline> {
      RedConfig red;
      red.capacity_bytes = capacity;
      return std::make_unique<RedQueue>(red, red_rng);
    };
  } else if (aqm < ranges_.red_probability + ranges_.codel_probability) {
    qdisc = "codel";
    config.queue_factory = [capacity](Rng) -> std::unique_ptr<QueueDiscipline> {
      CoDelConfig codel;
      codel.capacity_bytes = capacity;
      return std::make_unique<CoDelQueue>(codel);
    };
  }

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

  draw.family = traced ? "lte-trace" : qdisc;
  if (lossy) {
    draw.family += "+loss";
  }
  return draw;
}

}  // namespace astraea
