// Statistical and replay properties of the arrival processes: Poisson
// inter-arrival moments, the MMPP's long-run mean anchoring and burstiness,
// the diurnal sinusoid's peak-to-trough modulation, and the per-(seed,
// stream) determinism contract.

#include "serve/arrivals.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dmlscale::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> Gaps(const ArrivalSpec& spec, uint64_t seed, int count) {
  ArrivalProcess process(spec, seed, 0);
  std::vector<double> gaps;
  gaps.reserve(static_cast<size_t>(count));
  double prev = 0.0;
  for (int i = 0; i < count; ++i) {
    double t = process.NextArrivalSeconds();
    gaps.push_back(t - prev);
    prev = t;
  }
  return gaps;
}

double Mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Cv(const std::vector<double>& xs) {
  double mean = Mean(xs);
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  return std::sqrt(var) / mean;
}

TEST(ArrivalSpecTest, ValidationIsActionable) {
  ArrivalSpec spec;
  Status status = spec.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("qps"), std::string::npos);

  // NaN slips through a plain `<=` check; it and +inf must name the key.
  for (double bad : {std::nan(""), kInf}) {
    spec.rate_qps = bad;
    status = spec.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("qps"), std::string::npos) << bad;
  }

  spec.rate_qps = 100.0;
  EXPECT_TRUE(spec.Validate().ok());

  spec.kind = ArrivalKind::kDiurnal;
  spec.diurnal_peak_to_trough = 2.0;
  EXPECT_TRUE(spec.Validate().ok());
  for (double bad : {std::nan(""), kInf}) {
    ArrivalSpec diurnal = spec;
    diurnal.diurnal_period_s = bad;
    EXPECT_NE(diurnal.Validate().message().find("diurnal period"),
              std::string::npos)
        << bad;
    diurnal = spec;
    diurnal.diurnal_peak_to_trough = bad;
    EXPECT_NE(diurnal.Validate().message().find("peak-to-trough"),
              std::string::npos)
        << bad;
  }

  spec.kind = ArrivalKind::kMmpp;
  EXPECT_FALSE(spec.Validate().ok());  // multiplier still 1
  spec.burst_rate_multiplier = 4.0;
  spec.burst_fraction = 0.2;
  spec.burst_mean_duration_s = 5.0;
  EXPECT_TRUE(spec.Validate().ok());
  for (double bad : {std::nan(""), kInf}) {
    ArrivalSpec mmpp = spec;
    mmpp.burst_rate_multiplier = bad;
    EXPECT_NE(mmpp.Validate().message().find("burst rate multiplier"),
              std::string::npos)
        << bad;
    mmpp = spec;
    mmpp.burst_fraction = bad;
    EXPECT_NE(mmpp.Validate().message().find("burst fraction"),
              std::string::npos)
        << bad;
    mmpp = spec;
    mmpp.burst_mean_duration_s = bad;
    EXPECT_NE(mmpp.Validate().message().find("burst mean duration"),
              std::string::npos)
        << bad;
  }
}

TEST(ArrivalProcessTest, PoissonInterArrivalMeanAndCvMatchTheory) {
  ArrivalSpec spec;
  spec.rate_qps = 100.0;
  std::vector<double> gaps = Gaps(spec, 11, 200000);
  // Exponential gaps: mean 1/rate, coefficient of variation 1.
  EXPECT_NEAR(Mean(gaps), 0.01, 0.01 * 0.02);
  EXPECT_NEAR(Cv(gaps), 1.0, 0.03);
}

TEST(ArrivalProcessTest, ArrivalTimesAreMonotoneNonDecreasing) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kDiurnal,
                           ArrivalKind::kMmpp}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_qps = 50.0;
    spec.diurnal_period_s = 100.0;
    spec.diurnal_peak_to_trough = 3.0;
    spec.burst_rate_multiplier = 8.0;
    spec.burst_fraction = 0.2;
    spec.burst_mean_duration_s = 1.0;
    ASSERT_TRUE(spec.Validate().ok()) << ToString(kind);
    ArrivalProcess process(spec, 3, 0);
    double prev = 0.0;
    for (int i = 0; i < 5000; ++i) {
      double t = process.NextArrivalSeconds();
      EXPECT_GE(t, prev) << ToString(kind) << " at arrival " << i;
      prev = t;
    }
  }
}

TEST(ArrivalProcessTest, StreamsArePureFunctionsOfSeedAndStream) {
  ArrivalSpec spec;
  spec.rate_qps = 200.0;
  ArrivalProcess a(spec, 42, 1);
  ArrivalProcess b(spec, 42, 1);
  ArrivalProcess other_stream(spec, 42, 2);
  ArrivalProcess other_seed(spec, 43, 1);
  bool stream_differs = false;
  bool seed_differs = false;
  for (int i = 0; i < 1000; ++i) {
    double t = a.NextArrivalSeconds();
    EXPECT_EQ(t, b.NextArrivalSeconds());
    stream_differs |= t != other_stream.NextArrivalSeconds();
    seed_differs |= t != other_seed.NextArrivalSeconds();
  }
  EXPECT_TRUE(stream_differs);
  EXPECT_TRUE(seed_differs);
}

TEST(ArrivalProcessTest, MmppKeepsTheLongRunMeanAndBursts) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_qps = 100.0;
  spec.burst_rate_multiplier = 8.0;
  spec.burst_fraction = 0.2;
  spec.burst_mean_duration_s = 2.0;
  ASSERT_TRUE(spec.Validate().ok());
  EXPECT_EQ(spec.PeakRate(), spec.rate_qps * 8.0 / (1.0 - 0.2 + 8.0 * 0.2));

  // The quiet/burst mix is derived so the mean rate is rate_qps.
  std::vector<double> gaps = Gaps(spec, 5, 400000);
  EXPECT_NEAR(Mean(gaps), 0.01, 0.01 * 0.05);
  // Mixing two rates overdisperses the gaps: CV strictly above Poisson's 1.
  // With an 8x burst at 20% duty the mixture CV is ~1.6.
  EXPECT_GT(Cv(gaps), 1.2);
}

TEST(ArrivalProcessTest, DiurnalRateFollowsThePeakToTroughRatio) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_qps = 200.0;
  spec.diurnal_period_s = 100.0;
  spec.diurnal_peak_to_trough = 4.0;
  ASSERT_TRUE(spec.Validate().ok());
  EXPECT_EQ(spec.PeakRate(), 200.0 * (1.0 + 3.0 / 5.0));

  // Count arrivals in narrow windows around the sinusoid's crest (phase
  // 0.25) and trough (phase 0.75) over many periods. The window-averaged
  // rate ratio is (1 + 0.9836 a) / (1 - 0.9836 a) ~ 3.88 for r = 4
  // (a = 0.6, 0.9836 = the mean of sin over a +-5% phase window).
  ArrivalProcess process(spec, 17, 0);
  int64_t peak = 0;
  int64_t trough = 0;
  double t = 0.0;
  while (t < 4000.0) {
    t = process.NextArrivalSeconds();
    double phase = t / spec.diurnal_period_s;
    phase -= std::floor(phase);
    if (phase >= 0.20 && phase < 0.30) ++peak;
    if (phase >= 0.70 && phase < 0.80) ++trough;
  }
  ASSERT_GT(trough, 0);
  double ratio = static_cast<double>(peak) / static_cast<double>(trough);
  EXPECT_NEAR(ratio, 3.88, 0.45);
}

}  // namespace
}  // namespace dmlscale::serve
