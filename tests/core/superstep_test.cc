#include "core/superstep.h"

#include <gtest/gtest.h>

#include <memory>

namespace dmlscale::core {
namespace {

NodeSpec UnitNode() {
  return NodeSpec{.name = "unit", .peak_flops = 1e9, .efficiency = 1.0};
}
LinkSpec GigabitLink() { return LinkSpec{.bandwidth_bps = 1e9}; }

std::unique_ptr<Superstep> MakeStep(double flops, double bits) {
  return std::make_unique<Superstep>(
      std::make_unique<PerfectlyParallelCompute>(flops, UnitNode()),
      std::make_unique<TreeComm>(bits, GigabitLink()));
}

TEST(SuperstepTest, SumsComputeAndComm) {
  auto step = MakeStep(1e9, 1e9);
  // n=4: compute 0.25s + tree 2 rounds of 1s.
  EXPECT_DOUBLE_EQ(step->Seconds(4), 0.25 + 2.0);
  EXPECT_DOUBLE_EQ(step->ComputeSeconds(4), 0.25);
  EXPECT_DOUBLE_EQ(step->CommSeconds(4), 2.0);
}

TEST(SuperstepTest, SingleNodeHasNoComm) {
  auto step = MakeStep(1e9, 1e9);
  EXPECT_DOUBLE_EQ(step->Seconds(1), 1.0);
}

TEST(FunctionModelTest, WrapsArbitraryFunction) {
  FunctionModel model([](int n) { return 10.0 / n + 0.1 * n; }, "custom");
  EXPECT_DOUBLE_EQ(model.Seconds(1), 10.1);
  EXPECT_DOUBLE_EQ(model.Seconds(10), 2.0);
  EXPECT_EQ(model.name(), "custom");
}

TEST(SuperstepTest, CommDominatesAtScale) {
  // The crossover the paper's Fig. 1 illustrates: computation shrinks,
  // communication grows, so total time is U-shaped.
  auto step = std::make_unique<Superstep>(
      std::make_unique<PerfectlyParallelCompute>(100e9, UnitNode()),
      std::make_unique<LinearComm>(1e8, GigabitLink()));
  double prev = step->Seconds(1);
  bool decreased = false, increased_after_min = false;
  double min_seen = prev;
  for (int n = 2; n <= 100; ++n) {
    double t = step->Seconds(n);
    if (t < min_seen) {
      min_seen = t;
      decreased = true;
    } else if (decreased && t > min_seen) {
      increased_after_min = true;
    }
    prev = t;
  }
  EXPECT_TRUE(decreased);
  EXPECT_TRUE(increased_after_min);
}

}  // namespace
}  // namespace dmlscale::core
