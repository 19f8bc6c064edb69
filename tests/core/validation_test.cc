#include "core/validation.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dmlscale::core {
namespace {

TEST(MapeTest, ZeroForPerfectPrediction) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Mape(xs, xs).value(), 0.0);
}

TEST(MapeTest, KnownValue) {
  // |1.1-1|/1 = 10%, |1.8-2|/2 = 10% -> mean 10%.
  EXPECT_NEAR(Mape({1.1, 1.8}, {1.0, 2.0}).value(), 10.0, 1e-9);
}

TEST(MapeTest, RejectsMismatchedOrEmpty) {
  EXPECT_FALSE(Mape({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(Mape({}, {}).ok());
}

TEST(MapeTest, RejectsZeroActual) {
  EXPECT_FALSE(Mape({1.0}, {0.0}).ok());
}

TEST(MaeTest, KnownValue) {
  EXPECT_DOUBLE_EQ(Mae({1.0, 3.0}, {2.0, 1.0}).value(), 1.5);
}

TEST(RmseTest, KnownValue) {
  EXPECT_DOUBLE_EQ(Rmse({0.0, 0.0}, {3.0, 4.0}).value(),
                   std::sqrt((9.0 + 16.0) / 2.0));
}

TEST(RmseTest, AtLeastMae) {
  std::vector<double> p{1.0, 5.0, 2.0, 8.0};
  std::vector<double> a{2.0, 3.0, 2.5, 4.0};
  EXPECT_GE(Rmse(p, a).value(), Mae(p, a).value());
}

TEST(CompareCurvesTest, AlignsOnNodeCounts) {
  SpeedupCurve model;
  model.nodes = {1, 2, 3, 4, 5};
  model.speedup = {1.0, 1.9, 2.7, 3.4, 4.0};
  SpeedupCurve measured;
  measured.nodes = {2, 4};
  measured.speedup = {2.0, 3.2};
  auto report = CompareCurves(model, measured);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_points, 2);
  // errors: |1.9-2|/2 = 5%, |3.4-3.2|/3.2 = 6.25% -> MAPE 5.625%.
  EXPECT_NEAR(report->mape, 5.625, 1e-9);
}

TEST(CompareCurvesTest, FailsWhenModelMissingPoint) {
  SpeedupCurve model;
  model.nodes = {1, 2};
  model.speedup = {1.0, 2.0};
  SpeedupCurve measured;
  measured.nodes = {3};
  measured.speedup = {2.5};
  EXPECT_FALSE(CompareCurves(model, measured).ok());
}

}  // namespace
}  // namespace dmlscale::core
