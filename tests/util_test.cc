#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/backoff.h"
#include "src/util/chaos.h"
#include "src/util/checkpoint.h"
#include "src/util/cli_flags.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"
#include "src/util/stats.h"
#include "src/util/time.h"
#include "src/util/windowed_filter.h"

namespace astraea {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Milliseconds(30), 30'000'000);
  EXPECT_EQ(Seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.0)), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(Milliseconds(42)), 42.0);
}

TEST(TimeTest, TransmissionDelayRoundsUp) {
  // 1500 bytes at 100 Mbps = 120 microseconds exactly.
  EXPECT_EQ(TransmissionDelay(1500, Mbps(100)), Microseconds(120));
  // A non-integral duration rounds up, never down to zero.
  EXPECT_GT(TransmissionDelay(1, Gbps(400)), 0);
}

TEST(TimeTest, BdpBytes) {
  // 100 Mbps * 30 ms = 375000 bytes.
  EXPECT_EQ(BdpBytes(Mbps(100), Milliseconds(30)), 375'000u);
}

TEST(ParseDurationTest, AcceptsEveryUnit) {
  constexpr TimeNs kLo = 0;
  constexpr TimeNs kHi = Seconds(100.0);
  EXPECT_EQ(cli::ParseDuration("--t", "250ns", kLo, kHi), 250);
  EXPECT_EQ(cli::ParseDuration("--t", "500us", kLo, kHi), Microseconds(500));
  EXPECT_EQ(cli::ParseDuration("--t", "5ms", kLo, kHi), Milliseconds(5));
  EXPECT_EQ(cli::ParseDuration("--t", "1s", kLo, kHi), Seconds(1.0));
  EXPECT_EQ(cli::ParseDuration("--t", "1.5ms", kLo, kHi), Microseconds(1500));
  EXPECT_EQ(cli::ParseDuration("--t", "0.25s", kLo, kHi), Milliseconds(250));
  EXPECT_EQ(cli::ParseDuration("--t", "0ns", kLo, kHi), 0);
}

TEST(ParseDurationDeathTest, RejectsMalformedValues) {
  constexpr TimeNs kLo = Microseconds(10);
  constexpr TimeNs kHi = Seconds(60.0);
  // Unit suffixes are mandatory: a bare number would silently mean different
  // things to different flags.
  EXPECT_EXIT(cli::ParseDuration("--t", "500", kLo, kHi), testing::ExitedWithCode(1),
              "invalid value for --t");
  EXPECT_EXIT(cli::ParseDuration("--t", "banana", kLo, kHi), testing::ExitedWithCode(1),
              "not a duration");
  EXPECT_EXIT(cli::ParseDuration("--t", "5m", kLo, kHi), testing::ExitedWithCode(1),
              "unknown unit");
  EXPECT_EXIT(cli::ParseDuration("--t", "-5ms", kLo, kHi), testing::ExitedWithCode(1),
              "nonnegative");
  EXPECT_EXIT(cli::ParseDuration("--t", "1e300s", kLo, kHi), testing::ExitedWithCode(1),
              "invalid value for --t");
  // In-range enforcement: below lo and above hi both fail.
  EXPECT_EXIT(cli::ParseDuration("--t", "1us", kLo, kHi), testing::ExitedWithCode(1),
              "must be in");
  EXPECT_EXIT(cli::ParseDuration("--t", "90s", kLo, kHi), testing::ExitedWithCode(1),
              "must be in");
}

TimeNs SteadyNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(ParsePositiveDurationTest, AcceptsPositiveRejectsZeroAndNegative) {
  EXPECT_EQ(cli::ParsePositiveDuration("--t", "5ms", Seconds(60.0)), Milliseconds(5));
  EXPECT_EQ(cli::ParsePositiveDuration("--t", "1ns", Seconds(60.0)), 1);
  // Zero parses as a duration but is rejected with a *specific* message — a
  // zero batch window or rpc timeout silently busy-loops / never waits.
  EXPECT_EXIT(cli::ParsePositiveDuration("--t", "0ms", Seconds(60.0)),
              testing::ExitedWithCode(1), "must be a positive duration");
  EXPECT_EXIT(cli::ParsePositiveDuration("--t", "0s", Seconds(60.0)),
              testing::ExitedWithCode(1), "must be a positive duration");
  EXPECT_EXIT(cli::ParsePositiveDuration("--t", "-5ms", Seconds(60.0)),
              testing::ExitedWithCode(1), "nonnegative");
  EXPECT_EXIT(cli::ParsePositiveDuration("--t", "banana", Seconds(60.0)),
              testing::ExitedWithCode(1), "not a duration");
  EXPECT_EXIT(cli::ParsePositiveDuration("--t", "5", Seconds(60.0)),
              testing::ExitedWithCode(1), "unknown unit");
  EXPECT_EXIT(cli::ParsePositiveDuration("--t", "90s", Seconds(60.0)),
              testing::ExitedWithCode(1), "must be in");
}

TEST(BackoffTest, DeterministicGivenSeedAndDecorrelatedAcrossSeeds) {
  const BackoffConfig config{Milliseconds(10), Seconds(2.0), 2.0, 0.25};
  ExponentialBackoff a(config, 7);
  ExponentialBackoff b(config, 7);
  ExponentialBackoff c(config, 8);
  bool diverged = false;
  for (int i = 0; i < 16; ++i) {
    const TimeNs da = a.NextDelay();
    EXPECT_EQ(da, b.NextDelay()) << "same seed must give the same schedule";
    if (da != c.NextDelay()) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged) << "different seeds should jitter differently";
}

TEST(BackoffTest, GrowsWithinJitterBoundsUpToCap) {
  const BackoffConfig config{Milliseconds(10), Milliseconds(100), 2.0, 0.25};
  ExponentialBackoff backoff(config, 3);
  // Delay n is base * 2^n before jitter, scaled by a factor in [0.75, 1.25].
  TimeNs expected = config.base;
  for (int i = 0; i < 8; ++i) {
    const TimeNs d = backoff.NextDelay();
    EXPECT_GE(d, static_cast<TimeNs>(static_cast<double>(expected) * 0.75)) << "step " << i;
    EXPECT_LE(d, static_cast<TimeNs>(static_cast<double>(expected) * 1.25)) << "step " << i;
    expected = std::min<TimeNs>(expected * 2, config.cap);
  }
}

TEST(BackoffTest, ResetReturnsToBaseDelay) {
  const BackoffConfig config{Milliseconds(10), Seconds(2.0), 2.0, 0.0};  // no jitter
  ExponentialBackoff backoff(config, 1);
  EXPECT_EQ(backoff.NextDelay(), Milliseconds(10));
  EXPECT_EQ(backoff.NextDelay(), Milliseconds(20));
  backoff.Reset();
  EXPECT_EQ(backoff.NextDelay(), Milliseconds(10));
}

TEST(ChaosScheduleTest, ParseSortsAndRoundTripsThroughToString) {
  // Deliberately out of order; parse sorts by time.
  const chaos::ChaosSchedule schedule = chaos::ChaosSchedule::Parse(
      "5s@serve.respond.corrupt=1:throw;2s@serve.flush.mid_batch=1;8s@-");
  ASSERT_EQ(schedule.events().size(), 3u);
  EXPECT_EQ(schedule.events()[0].at, Seconds(2.0));
  EXPECT_EQ(schedule.events()[0].spec, "serve.flush.mid_batch=1");
  EXPECT_EQ(schedule.events()[1].at, Seconds(5.0));
  EXPECT_EQ(schedule.events()[2].at, Seconds(8.0));
  EXPECT_TRUE(schedule.events()[2].spec.empty()) << "'-' means disarm";
  EXPECT_EQ(schedule.end(), Seconds(8.0));

  const chaos::ChaosSchedule reparsed = chaos::ChaosSchedule::Parse(schedule.ToString());
  ASSERT_EQ(reparsed.events().size(), schedule.events().size());
  for (size_t i = 0; i < schedule.events().size(); ++i) {
    EXPECT_EQ(reparsed.events()[i].at, schedule.events()[i].at);
    EXPECT_EQ(reparsed.events()[i].spec, schedule.events()[i].spec);
  }
}

TEST(ChaosScheduleTest, MalformedEventsThrowAtParseTime) {
  EXPECT_THROW(chaos::ChaosSchedule::Parse("nodelimiter"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::Parse("@site=1"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::Parse("banana@site=1"), std::invalid_argument);
  // Failpoint specs are validated eagerly: a typo fails here, not mid-soak.
  EXPECT_THROW(chaos::ChaosSchedule::Parse("2s@notaspec"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::Parse("2s@site=1:teleport"), std::invalid_argument);
}

TEST(ChaosScheduleTest, RandomStormIsSeededAndEndsDisarmed) {
  const TimeNs duration = Seconds(10.0);
  const chaos::ChaosSchedule a = chaos::ChaosSchedule::RandomServeStorm(9, duration,
                                                                        Milliseconds(500));
  const chaos::ChaosSchedule b = chaos::ChaosSchedule::RandomServeStorm(9, duration,
                                                                        Milliseconds(500));
  EXPECT_EQ(a.ToString(), b.ToString()) << "same seed must give the same storm";
  const chaos::ChaosSchedule c = chaos::ChaosSchedule::RandomServeStorm(10, duration,
                                                                        Milliseconds(500));
  EXPECT_NE(a.ToString(), c.ToString());
  ASSERT_GE(a.events().size(), 2u);
  // First event is always a crash (every storm exercises restart+reconnect).
  EXPECT_EQ(a.events().front().spec, "serve.flush.mid_batch=1");
  EXPECT_TRUE(a.events().back().spec.empty()) << "storms must end disarmed";
  EXPECT_EQ(a.end(), duration);
}

TEST(ChaosRunnerTest, AppliesEventsAndSkipsThoseBeforeTheResumeOffset) {
  failpoint::Clear();
  const chaos::ChaosSchedule schedule =
      chaos::ChaosSchedule::Parse("1ms@test.chaos.runner=1:throw");
  {
    chaos::ChaosRunner runner(schedule);
    const TimeNs deadline = SteadyNow() + Seconds(10.0);
    while (runner.applied() == 0 && SteadyNow() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(runner.applied(), 1u);
    EXPECT_TRUE(failpoint::IsArmed("test.chaos.runner"));
  }
  failpoint::Clear();
  {
    // Resuming past the event: a restarted process must not replay it.
    chaos::ChaosRunner runner(schedule, /*offset=*/Seconds(1.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(runner.applied(), 0u);
    EXPECT_FALSE(failpoint::IsArmed("test.chaos.runner"));
  }
}

TEST(FailpointTest, StallActionDelaysTheSiteThenDisarms) {
  failpoint::Configure("test.stall.site=1:stall:50ms");
  const TimeNs t0 = SteadyNow();
  ASTRAEA_FAILPOINT("test.stall.site");
  const TimeNs stalled = SteadyNow() - t0;
  EXPECT_GE(stalled, Milliseconds(50));
  // One-shot: the next hit is free.
  const TimeNs t1 = SteadyNow();
  ASTRAEA_FAILPOINT("test.stall.site");
  EXPECT_LT(SteadyNow() - t1, Milliseconds(50));
  failpoint::Clear();
}

TEST(FailpointTest, ValidateRejectsBadSpecsWithoutArming) {
  EXPECT_THROW(failpoint::Validate("garbage"), std::invalid_argument);
  EXPECT_THROW(failpoint::Validate("site=0"), std::invalid_argument);
  EXPECT_THROW(failpoint::Validate("site=1:stall:banana"), std::invalid_argument);
  failpoint::Validate("site=1:stall:5ms");  // well-formed: no throw, no arm
  EXPECT_FALSE(failpoint::IsArmed("site"));
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(7);
  Rng child = parent.Fork();
  // The child stream must differ from a same-seed parent restart.
  Rng parent2(7);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (child.Uniform() != parent2.Uniform()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, DeriveSeedStreamsPairwiseNonOverlapping) {
  // The parallel experiment harness assumes DeriveSeed child streams never
  // collide: 4 streams x 1M indices each must produce 4M distinct seeds.
  constexpr uint64_t kStreams[] = {0, 1, 42, 0xDEADBEEF};
  constexpr size_t kDraws = 1'000'000;
  std::vector<uint64_t> seeds;
  seeds.reserve(4 * kDraws);
  for (uint64_t stream : kStreams) {
    for (size_t i = 0; i < kDraws; ++i) {
      seeds.push_back(Rng::DeriveSeed(stream, i));
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
      << "two (stream, index) pairs derived the same seed";
}

TEST(RngTest, DeriveSeedIsPlatformStable) {
  // DeriveSeed is pure 64-bit integer arithmetic (the SplitMix64 finalizer),
  // so its outputs are part of the reproducibility contract: a rep seeded
  // on one machine must mean the same experiment everywhere. Golden first
  // 16 values of each stream.
  constexpr uint64_t kStreams[] = {0, 1, 42, 0xDEADBEEF};
  constexpr uint64_t kGolden[4][16] = {
      {0xE220A8397B1DCDAFULL, 0x6E789E6AA1B965F4ULL, 0x06C45D188009454FULL,
       0xF88BB8A8724C81ECULL, 0x1B39896A51A8749BULL, 0x53CB9F0C747EA2EAULL,
       0x2C829ABE1F4532E1ULL, 0xC584133AC916AB3CULL, 0x3EE5789041C98AC3ULL,
       0xF3B8488C368CB0A6ULL, 0x657EECDD3CB13D09ULL, 0xC2D326E0055BDEF6ULL,
       0x8621A03FE0BBDB7BULL, 0x8E1F7555983AA92FULL, 0xB54E0F1600CC4D19ULL,
       0x84BB3F97971D80ABULL},
      {0x910A2DEC89025CC1ULL, 0xBEEB8DA1658EEC67ULL, 0xF893A2EEFB32555EULL,
       0x71C18690EE42C90BULL, 0x71BB54D8D101B5B9ULL, 0xC34D0BFF90150280ULL,
       0xE099EC6CD7363CA5ULL, 0x85E7BB0F12278575ULL, 0x491718DE357E3DA8ULL,
       0xCB435C8E74616796ULL, 0x6775DC7701564F61ULL, 0x9AFCD44D14CF8BFEULL,
       0x7476CF8A4BAA5DC0ULL, 0x87B341D690D7A28AULL, 0x6F9B6DAE6F4C57A8ULL,
       0x2AC2CE17A5794A3BULL},
      {0xBDD732262FEB6E95ULL, 0x28EFE333B266F103ULL, 0x47526757130F9F52ULL,
       0x581CE1FF0E4AE394ULL, 0x09BC585A244823F2ULL, 0xDE4431FA3C80DB06ULL,
       0x37E9671C45376D5DULL, 0xCCF635EE9E9E2FA4ULL, 0x5705B8770B3D7DD5ULL,
       0x9E54D738297F77AEULL, 0x3474724A775B19BFULL, 0x7E348A0E451650BEULL,
       0x836DED897F3E46E6ULL, 0x851F977347ED6DB7ULL, 0xAA47E31C02E78EDCULL,
       0x341452C54D7C33F2ULL},
      {0x4ADFB90F68C9EB9BULL, 0xDE586A3141A10922ULL, 0x021FBC2F8E1CFC1DULL,
       0x7466CE737BE16790ULL, 0x3BFA8764F685BD1CULL, 0xAB203E503CB55B3FULL,
       0x5A2FDC2BF68CEDB3ULL, 0xB30A4CCF430B1B5AULL, 0x0A90415039BD5985ULL,
       0x26AE50847745EB7EULL, 0xE239ED306D9B1929ULL, 0xFB7D9A8D444D41BCULL,
       0x1BB52E523960D559ULL, 0xCF8631B40292B5D5ULL, 0xF6186C41B838B122ULL,
       0x432497FFB78C1173ULL},
  };
  for (size_t s = 0; s < 4; ++s) {
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(Rng::DeriveSeed(kStreams[s], i), kGolden[s][i])
          << "stream " << kStreams[s] << " index " << i;
    }
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, NormalMatchesStandardLibraryBitForBit) {
  for (const auto& [mean, stddev] :
       std::vector<std::pair<double, double>>{{0.0, 1.0}, {0.0, 0.15}, {-2.5, 3.0}, {1e6, 1e-3}}) {
    Rng rng(31);
    std::mt19937_64 engine = rng.engine();
    for (int i = 0; i < 200; ++i) {
      std::normal_distribution<double> reference(mean, stddev);
      const double want = reference(engine);
      const double got = rng.Normal(mean, stddev);
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "N(" << mean << ", " << stddev << ") draw " << i;
    }
  }
}

TEST(RngTest, NormalWithZeroStddevReturnsMeanAndAdvancesTheStream) {
  Rng noisy(8);
  Rng silent(8);
  for (int i = 0; i < 100; ++i) {
    noisy.Normal(0.0, 0.1);
    EXPECT_EQ(silent.Normal(0.25, 0.0), 0.25);
    EXPECT_EQ(silent.Normal(-3.0, 0.0), -3.0);
    noisy.Normal(0.0, 0.1);
  }
  // Zero noise consumes the same engine draws as nonzero noise, so a
  // noise-free evaluation leaves every later draw where it would be.
  EXPECT_EQ(noisy.engine(), silent.engine());
}

TEST(JainIndexTest, EqualAllocationIsOne) {
  const double values[] = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(JainIndex(values), 1.0);
}

TEST(JainIndexTest, SingleHogIsOneOverN) {
  const double values[] = {10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(JainIndex(values), 0.25);
}

TEST(JainIndexTest, EmptyAndZeroAreConventionallyFair) {
  EXPECT_DOUBLE_EQ(JainIndex({}), 1.0);
  const double zeros[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(JainIndex(zeros), 1.0);
}

TEST(JainIndexTest, ScaleInvariant) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(JainIndex(a), JainIndex(b));
}

TEST(StatsTest, MeanAndStdDev) {
  const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(values), 2.0);  // classic textbook example
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.5);
}

// Regression: out-of-range p used to cast a negative rank to size_t (UB) and
// read past the end for p > 100. It now saturates at the extremes.
TEST(StatsTest, PercentileClampsOutOfRangeP) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, -50.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1000.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, -0.0001), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0001), 3.0);
}

TEST(RunningStatTest, MatchesBatchComputation) {
  RunningStat rs;
  const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double v : values) {
    rs.Add(v);
  }
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(EmpiricalCdfTest, FractionsAndQuantiles) {
  EmpiricalCdf cdf({3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.Fraction(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Fraction(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.Fraction(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.5);
}

TEST(TimeSeriesTest, WindowedMean) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Add(Seconds(i), static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(ts.MeanOver(Seconds(2.0), Seconds(5.0)), 3.0);  // samples 2,3,4
  EXPECT_DOUBLE_EQ(ts.MeanOver(Seconds(100.0), Seconds(200.0)), 0.0);
}

TEST(TimeSeriesTest, ValueAt) {
  TimeSeries ts;
  ts.Add(Seconds(1.0), 10.0);
  ts.Add(Seconds(2.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(Seconds(0.5)), 0.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(Seconds(1.5)), 10.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(Seconds(3.0)), 20.0);
}

TEST(TimeSeriesTest, FirstStableEntryFindsConvergence) {
  TimeSeries ts;
  // Ramp 0..9 then stable at 10.
  for (int i = 0; i < 10; ++i) {
    ts.Add(Seconds(i), static_cast<double>(i));
  }
  for (int i = 10; i < 20; ++i) {
    ts.Add(Seconds(i), 10.0);
  }
  const TimeNs entry = ts.FirstStableEntry(0, 10.0, 0.1, Seconds(3.0));
  EXPECT_EQ(entry, Seconds(9.0));  // 9.0 is within 10% of 10.0
}

TEST(TimeSeriesTest, FirstStableEntryRejectsTransients) {
  TimeSeries ts;
  ts.Add(Seconds(1.0), 10.0);  // brief touch
  ts.Add(Seconds(2.0), 50.0);  // leaves the band
  for (int i = 3; i < 10; ++i) {
    ts.Add(Seconds(i), 10.0);
  }
  const TimeNs entry = ts.FirstStableEntry(0, 10.0, 0.1, Seconds(3.0));
  EXPECT_EQ(entry, Seconds(3.0));
}

// The definition Crc32 must match: one table lookup per byte.
uint32_t Crc32ByteAtATime(const unsigned char* p, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SliceBy8MatchesTheByteAtATimeDefinition) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  std::vector<unsigned char> bytes(8 + 300);
  Rng rng(24);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  // Every start offset within a word and every length across several 8-byte
  // strides and tails.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + offset, len), Crc32ByteAtATime(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(SerializationTest, RoundTrip) {
  const std::string path = "/tmp/astraea_serialization_test.bin";
  {
    BinaryWriter w(path);
    w.WriteU32(0xDEADBEEF);
    w.WriteF64(3.25);
    w.WriteString("hello");
    w.WriteFloatVec({1.0f, 2.0f, 3.0f});
  }
  BinaryReader r(path);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_DOUBLE_EQ(r.ReadF64(), 3.25);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadFloatVec(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  std::filesystem::remove(path);
}

TEST(SerializationTest, TruncatedFileThrows) {
  const std::string path = "/tmp/astraea_serialization_trunc.bin";
  {
    BinaryWriter w(path);
    w.WriteU32(1);
  }
  BinaryReader r(path);
  r.ReadU32();
  EXPECT_THROW(r.ReadU64(), SerializationError);
  std::filesystem::remove(path);
}

TEST(WindowedFilterTest, MinTracksWindow) {
  WindowedMin<double> filter(Seconds(10.0));
  filter.Update(Seconds(0.0), 5.0);
  filter.Update(Seconds(1.0), 3.0);
  filter.Update(Seconds(2.0), 8.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(2.0), 99.0), 3.0);
  // The 3.0 sample expires after 10s; 8.0 becomes the min.
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(12.0), 99.0), 8.0);
}

TEST(WindowedFilterTest, MaxTracksWindow) {
  WindowedMax<double> filter(Seconds(5.0));
  filter.Update(Seconds(0.0), 10.0);
  filter.Update(Seconds(1.0), 4.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(1.0), 0.0), 10.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(6.0), 0.0), 4.0);
}

TEST(WindowedFilterTest, EmptyReturnsFallback) {
  WindowedMin<int> filter(Seconds(1.0));
  EXPECT_EQ(filter.Get(Seconds(0.0), 42), 42);
}

TEST(WindowedFilterTest, SampleExactlyWindowOldIsRetained) {
  // The expiry comparison is strict (front().first < now - window): a sample
  // taken exactly `window` ago is still in the window. Callers that Update
  // and read at a cadence equal to the window must not see their freshest
  // surviving sample flap out.
  WindowedMin<double> filter(Seconds(10.0));
  filter.Update(Seconds(0.0), 3.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(10.0), 99.0), 3.0);   // age == window: kept
  EXPECT_DOUBLE_EQ(filter.Peek(Seconds(10.0), 99.0), 3.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(10.0) + 1, 99.0), 99.0);  // one ns older: expired
}

TEST(WindowedFilterTest, PeekDoesNotMutate) {
  WindowedMin<double> filter(Seconds(5.0));
  filter.Update(Seconds(0.0), 2.0);
  filter.Update(Seconds(1.0), 7.0);
  // Far in the future every sample has aged out: Peek reports the fallback
  // but must leave the deque untouched, so a subsequent Peek at an earlier
  // time still sees the samples. Get would have dropped them.
  EXPECT_DOUBLE_EQ(filter.Peek(Seconds(100.0), 42.0), 42.0);
  EXPECT_FALSE(filter.empty());
  EXPECT_DOUBLE_EQ(filter.Peek(Seconds(3.0), 42.0), 2.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(100.0), 42.0), 42.0);
  EXPECT_TRUE(filter.empty());
}

TEST(WindowedFilterTest, PeekSkipsExpiredPrefixWithoutRemoving) {
  WindowedMin<double> filter(Seconds(10.0));
  filter.Update(Seconds(0.0), 1.0);   // the min, but stale at t=15
  filter.Update(Seconds(8.0), 4.0);   // still live at t=15
  EXPECT_DOUBLE_EQ(filter.Peek(Seconds(15.0), 99.0), 4.0);
  EXPECT_FALSE(filter.empty());
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(15.0), 99.0), 4.0);
}

TEST(WindowedFilterTest, ShrunkWindowExpiresStaleSamplesOnNextCall) {
  WindowedMin<double> filter(Seconds(60.0));
  filter.Update(Seconds(0.0), 1.0);
  filter.Update(Seconds(5.0), 6.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(10.0), 99.0), 1.0);
  // Shrinking the window must actually retire samples that are stale under
  // the new width the next time the filter is consulted.
  filter.set_window(Seconds(2.0));
  EXPECT_DOUBLE_EQ(filter.Peek(Seconds(10.0), 99.0), 99.0);  // both now stale
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(10.0), 99.0), 99.0);
  EXPECT_TRUE(filter.empty());
  filter.Update(Seconds(11.0), 3.0);
  EXPECT_DOUBLE_EQ(filter.Get(Seconds(12.0), 99.0), 3.0);
}

// Property sweep: Jain index is bounded in [1/n, 1] for positive allocations.
class JainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JainPropertyTest, BoundedByOneOverN) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> values(n);
    for (auto& v : values) {
      v = rng.Uniform(0.01, 100.0);
    }
    const double j = JainIndex(values);
    EXPECT_GE(j, 1.0 / n - 1e-12);
    EXPECT_LE(j, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, JainPropertyTest, ::testing::Values(2, 3, 5, 10, 50));

}  // namespace
}  // namespace astraea
