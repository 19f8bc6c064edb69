#include "common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dmlscale {
namespace {

TEST(MathUtilTest, MeanAndVariance) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(xs), std::sqrt(1.25));
}

TEST(MathUtilTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
}

TEST(MathUtilTest, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 25.0);
}

TEST(MathUtilTest, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({3.0}, 75.0), 3.0);
}

TEST(MathUtilTest, Sum) {
  std::vector<double> xs{3.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(Sum(xs), 4.0);
}

TEST(MathUtilTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(MathUtilTest, CeilSqrt) {
  EXPECT_EQ(CeilSqrt(0), 0u);
  EXPECT_EQ(CeilSqrt(1), 1u);
  EXPECT_EQ(CeilSqrt(2), 2u);
  EXPECT_EQ(CeilSqrt(4), 2u);
  EXPECT_EQ(CeilSqrt(5), 3u);
  EXPECT_EQ(CeilSqrt(9), 3u);
  EXPECT_EQ(CeilSqrt(10), 4u);
  EXPECT_EQ(CeilSqrt(16), 4u);
  EXPECT_EQ(CeilSqrt(1000000), 1000u);
  EXPECT_EQ(CeilSqrt(1000001), 1001u);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(0, 3), 0u);
}

TEST(MathUtilTest, GiniUniformIsZero) {
  EXPECT_NEAR(Gini({5.0, 5.0, 5.0, 5.0}), 0.0, 1e-12);
}

TEST(MathUtilTest, GiniConcentratedIsHigh) {
  // One element holds everything.
  double g = Gini({0.0, 0.0, 0.0, 100.0});
  EXPECT_GT(g, 0.7);
  EXPECT_LE(g, 1.0);
}

TEST(MathUtilTest, GiniMonotoneInSkew) {
  double even = Gini({4.0, 4.0, 4.0, 4.0});
  double mild = Gini({2.0, 3.0, 5.0, 6.0});
  double strong = Gini({1.0, 1.0, 1.0, 13.0});
  EXPECT_LT(even, mild);
  EXPECT_LT(mild, strong);
}

class CeilSqrtPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CeilSqrtPropertyTest, DefinitionHolds) {
  uint64_t n = GetParam();
  uint64_t r = CeilSqrt(n);
  EXPECT_GE(r * r, n);
  if (r > 0) {
    EXPECT_LT((r - 1) * (r - 1), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CeilSqrtPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 15, 16, 17, 99,
                                           100, 101, 4095, 4096, 4097,
                                           999999937));

}  // namespace
}  // namespace dmlscale
