#include "common/histogram.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace dmlscale {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, MeanIsExactNotBinned) {
  Histogram h;
  h.Add(0.001);
  h.Add(0.002);
  h.Add(0.006);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.003);
  EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramTest, PercentileWithinBinResolution) {
  Histogram::Options options;
  options.min_value = 1e-6;
  options.max_value = 1e3;
  options.bins_per_decade = 50;
  Histogram h(options);
  // 1..1000 ms uniformly: p50 ~ 0.5, p99 ~ 0.99 within one bin width
  // (10^(1/50) - 1 ~ 4.7% relative).
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i) * 1e-3);
  EXPECT_NEAR(h.Percentile(0.50), 0.500, 0.500 * 0.05);
  EXPECT_NEAR(h.Percentile(0.99), 0.990, 0.990 * 0.05);
}

TEST(HistogramTest, UnderflowAndOverflowClampToBounds) {
  Histogram::Options options;
  options.min_value = 1e-3;
  options.max_value = 1e0;
  Histogram h(options);
  h.Add(1e-9);
  h.Add(-1.0);
  h.Add(50.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.Percentile(0.0), options.min_value);
  EXPECT_EQ(h.Percentile(1.0), options.max_value);
}

// The property the sharded serving simulator relies on: per-shard
// histograms merged in any order reproduce the serial histogram's counts
// exactly, so every percentile compares with EXPECT_EQ.
TEST(HistogramTest, MergeIsBitIdenticalToSerialFill) {
  Pcg32 rng(42);
  std::vector<double> samples;
  samples.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(0.001 * (1.0 + 99.0 * rng.NextDouble()));
  }

  Histogram serial;
  for (double s : samples) serial.Add(s);

  // Four "shards", round-robin assignment, merged shard-0-last to prove
  // order independence.
  std::vector<Histogram> shards(4);
  for (size_t i = 0; i < samples.size(); ++i) {
    shards[i % 4].Add(samples[i]);
  }
  Histogram merged;
  merged.Merge(shards[3]);
  merged.Merge(shards[1]);
  merged.Merge(shards[2]);
  merged.Merge(shards[0]);

  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.bins(), serial.bins());
  EXPECT_EQ(merged.Percentile(0.50), serial.Percentile(0.50));
  EXPECT_EQ(merged.Percentile(0.95), serial.Percentile(0.95));
  EXPECT_EQ(merged.Percentile(0.99), serial.Percentile(0.99));
}

TEST(ExactPercentileTest, NearestRankOnSmallSamples) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_EQ(ExactPercentile(v, 0.0), 1.0);
  EXPECT_EQ(ExactPercentile(v, 0.2), 1.0);
  EXPECT_EQ(ExactPercentile(v, 0.5), 3.0);
  EXPECT_EQ(ExactPercentile(v, 0.9), 5.0);
  EXPECT_EQ(ExactPercentile(v, 1.0), 5.0);
}

}  // namespace
}  // namespace dmlscale
