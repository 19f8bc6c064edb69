#include "core/speedup.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace dmlscale::core {
namespace {

TEST(SpeedupAnalyzerTest, PerfectScalingIsLinear) {
  FunctionModel model([](int n) { return 1.0 / n; }, "perfect");
  auto curve = SpeedupAnalyzer::Compute(model, 8);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->nodes.size(), 8u);
  for (size_t i = 0; i < curve->nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve->speedup[i], static_cast<double>(curve->nodes[i]));
  }
  EXPECT_EQ(curve->OptimalNodes(), 8);
  EXPECT_TRUE(curve->IsScalable());
}

TEST(SpeedupAnalyzerTest, Fig1StyleCurvePeaksNear14) {
  // Example model of Section III / Fig. 1: tcp = 1/n, tcm = a * n with
  // a = 1/196, giving argmin t(n) at n = sqrt(196) = 14.
  FunctionModel model([](int n) { return 1.0 / n + n / 196.0; }, "fig1");
  auto curve = SpeedupAnalyzer::Compute(model, 30);
  ASSERT_TRUE(curve.ok());
  EXPECT_EQ(curve->OptimalNodes(), 14);
  // Speedup at the peak: t(1)/t(14) = (1 + 1/196) / (2/14) = ~7.04.
  EXPECT_NEAR(curve->PeakSpeedup(), 7.04, 0.02);
  // Beyond the peak, speedup declines.
  EXPECT_GT(curve->At(14).value(), curve->At(25).value());
}

TEST(SpeedupAnalyzerTest, NonScalableAlgorithm) {
  // Communication instantly dominates: no n gives s(n) > 1.
  FunctionModel model([](int n) { return 1.0 + 0.5 * (n - 1); }, "bad");
  auto curve = SpeedupAnalyzer::Compute(model, 10);
  ASSERT_TRUE(curve.ok());
  EXPECT_FALSE(curve->IsScalable());
  EXPECT_EQ(curve->OptimalNodes(), 1);
}

TEST(SpeedupAnalyzerTest, EfficiencyIsSpeedupOverN) {
  FunctionModel model([](int n) { return 1.0 / n; }, "perfect");
  auto curve = SpeedupAnalyzer::Compute(model, 4);
  ASSERT_TRUE(curve.ok());
  auto eff = curve->Efficiency();
  for (double e : eff) EXPECT_DOUBLE_EQ(e, 1.0);
}

TEST(SpeedupAnalyzerTest, ReferenceNShiftsBaseline) {
  // Fig. 3 style: speedup relative to n = 50.
  FunctionModel model([](int n) { return 100.0 / n; }, "weak");
  auto curve = SpeedupAnalyzer::ComputeAt(model, {50, 100, 200}, 50);
  ASSERT_TRUE(curve.ok());
  EXPECT_DOUBLE_EQ(curve->At(50).value(), 1.0);
  EXPECT_DOUBLE_EQ(curve->At(100).value(), 2.0);
  EXPECT_DOUBLE_EQ(curve->At(200).value(), 4.0);
}

TEST(SpeedupAnalyzerTest, RejectsBadInputs) {
  FunctionModel model([](int n) { return 1.0 / n; }, "m");
  EXPECT_FALSE(SpeedupAnalyzer::Compute(model, 0).ok());
  EXPECT_FALSE(SpeedupAnalyzer::ComputeAt(model, {}, 1).ok());
  EXPECT_FALSE(SpeedupAnalyzer::ComputeAt(model, {0}, 1).ok());
  EXPECT_FALSE(SpeedupAnalyzer::ComputeAt(model, {1, 2}, 0).ok());
}

TEST(SpeedupAnalyzerTest, RejectsNonPositiveTimes) {
  FunctionModel zero([](int) { return 0.0; }, "zero");
  EXPECT_FALSE(SpeedupAnalyzer::Compute(zero, 4).ok());
  EXPECT_FALSE(SpeedupAnalyzer::ComputeAt(zero, {1, 2}, 1).ok());
  FunctionModel negative_at_3([](int n) { return n == 3 ? -1.0 : 1.0; }, "neg");
  EXPECT_FALSE(SpeedupAnalyzer::Compute(negative_at_3, 4).ok());
}

TEST(SpeedupAnalyzerTest, RejectsNonFiniteTimes) {
  const double inf = std::numeric_limits<double>::infinity();
  FunctionModel nan_everywhere([](int) { return std::nan(""); }, "nan");
  EXPECT_FALSE(SpeedupAnalyzer::Compute(nan_everywhere, 4).ok());
  FunctionModel inf_reference([inf](int n) { return n == 1 ? inf : 1.0; },
                              "inf-ref");
  EXPECT_FALSE(SpeedupAnalyzer::Compute(inf_reference, 4).ok());
  FunctionModel nan_at_3(
      [](int n) { return n == 3 ? std::nan("") : 1.0 / n; }, "nan-3");
  EXPECT_EQ(SpeedupAnalyzer::Compute(nan_at_3, 4).status().code(),
            StatusCode::kFailedPrecondition);
  FunctionModel inf_at_3([inf](int n) { return n == 3 ? inf : 1.0 / n; },
                         "inf-3");
  EXPECT_EQ(SpeedupAnalyzer::Compute(inf_at_3, 4).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SpeedupCurveTest, FirstLocalPeakFindsStaircasePeak) {
  // A dip after n=9 like the Spark two-wave staircase, global max at 16.
  SpeedupCurve curve;
  curve.nodes = {7, 8, 9, 10, 11, 16};
  curve.speedup = {3.6, 3.8, 4.0, 3.7, 3.8, 4.1};
  EXPECT_EQ(curve.FirstLocalPeak(), 9);
  EXPECT_EQ(curve.OptimalNodes(), 16);
}

TEST(SpeedupCurveTest, FirstLocalPeakFallsBackOnUnimodalCurves) {
  FunctionModel model([](int n) { return 1.0 / n + n / 196.0; }, "fig1");
  auto curve = SpeedupAnalyzer::Compute(model, 30).value();
  EXPECT_EQ(curve.FirstLocalPeak(), curve.OptimalNodes());
  FunctionModel increasing([](int n) { return 1.0 / n; }, "perfect");
  auto mono = SpeedupAnalyzer::Compute(increasing, 8).value();
  EXPECT_EQ(mono.FirstLocalPeak(), 8);
}

TEST(SpeedupCurveTest, AtReportsNotFoundForMissingN) {
  FunctionModel model([](int n) { return 1.0 / n; }, "m");
  auto curve = SpeedupAnalyzer::ComputeAt(model, {1, 4, 8}, 1);
  ASSERT_TRUE(curve.ok());
  EXPECT_TRUE(curve->At(4).ok());
  EXPECT_FALSE(curve->At(5).ok());
  EXPECT_EQ(curve->At(5).status().code(), StatusCode::kNotFound);
}

// Property: s(reference_n) == 1 always.
TEST(SpeedupCurveDeathTest, MismatchedSizesAreAProgrammingError) {
  // speedup[] positions index into nodes[]; a hand-built curve whose
  // vectors drifted apart must abort loudly instead of reading out of
  // bounds (or silently returning a wrong node count).
  SpeedupCurve curve;
  curve.nodes = {1, 2, 3};
  curve.speedup = {1.0, 1.5};
  EXPECT_DEATH(curve.OptimalNodes(), "check failed");
  EXPECT_DEATH(curve.FirstLocalPeak(), "check failed");
  EXPECT_DEATH(curve.Efficiency(), "check failed");
  EXPECT_DEATH(curve.At(2), "check failed");
}

class ReferencePointTest : public ::testing::TestWithParam<int> {};

TEST_P(ReferencePointTest, SpeedupAtReferenceIsOne) {
  int ref = GetParam();
  FunctionModel model([](int n) { return 3.0 / n + 0.01 * n; }, "m");
  auto curve = SpeedupAnalyzer::Compute(model, 64, ref);
  ASSERT_TRUE(curve.ok());
  EXPECT_DOUBLE_EQ(curve->At(ref).value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReferencePointTest,
                         ::testing::Values(1, 2, 5, 16, 50));

}  // namespace
}  // namespace dmlscale::core
