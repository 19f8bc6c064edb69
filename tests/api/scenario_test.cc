#include "api/scenario.h"

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "api/presets.h"
#include "core/communication_model.h"
#include "core/computation_model.h"
#include "core/superstep.h"

namespace dmlscale::api {
namespace {

Scenario::Builder Fig1Builder() {
  Scenario::Builder builder;
  builder.Name("fig1")
      .Hardware(presets::GenericGigaflopNode())
      .Link(presets::GigabitEthernet())
      .MaxNodes(30)
      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
      .Comm("linear", {{"bits", 1e9}});
  return builder;
}

TEST(ScenarioBuilderTest, BuildsAndMatchesHandWiredSuperstep) {
  auto scenario = Fig1Builder().Build();
  ASSERT_TRUE(scenario.ok());

  core::NodeSpec node = presets::GenericGigaflopNode();
  core::LinkSpec link = presets::GigabitEthernet();
  core::Superstep step(
      std::make_unique<core::PerfectlyParallelCompute>(196.0e9, node),
      std::make_unique<core::LinearComm>(1e9, link));
  for (int n : {1, 7, 14, 30}) {
    EXPECT_DOUBLE_EQ(scenario->Seconds(n), step.Seconds(n)) << "n=" << n;
    EXPECT_DOUBLE_EQ(scenario->ComputeSeconds(n), step.ComputeSeconds(n));
    EXPECT_DOUBLE_EQ(scenario->CommSeconds(n), step.CommSeconds(n));
  }
  EXPECT_EQ(scenario->compute_name(), "perfectly-parallel");
  EXPECT_EQ(scenario->comm_name(), "linear");
  EXPECT_EQ(scenario->cluster().max_nodes, 30);
}

TEST(ScenarioBuilderTest, SuperstepsMultiplyIterationTime) {
  auto one = Fig1Builder().Build();
  auto three = Fig1Builder().Supersteps(3).Build();
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_DOUBLE_EQ(three->Seconds(10), 3.0 * one->Seconds(10));
  // Speedup is a ratio, so the curve is unchanged.
  auto curve_one = one->Speedup();
  auto curve_three = three->Speedup();
  ASSERT_TRUE(curve_one.ok());
  ASSERT_TRUE(curve_three.ok());
  EXPECT_EQ(curve_one->OptimalNodes(), curve_three->OptimalNodes());
}

TEST(ScenarioBuilderTest, MissingComputeFails) {
  auto scenario = Scenario::Builder()
                      .Hardware(presets::GenericGigaflopNode())
                      .Link(presets::GigabitEthernet())
                      .Comm("linear", {{"bits", 1e9}})
                      .Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kFailedPrecondition);
  // The message advertises the registered menu.
  EXPECT_NE(scenario.status().message().find("perfectly-parallel"),
            std::string::npos);
}

TEST(ScenarioBuilderTest, MissingHardwareFails) {
  auto scenario = Scenario::Builder()
                      .Compute("perfectly-parallel", {{"total_flops", 1e9}})
                      .Comm("linear", {{"bits", 1e9}})
                      .Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ScenarioBuilderTest, InvalidHardwareFails) {
  auto scenario =
      Fig1Builder()
          .Hardware(core::NodeSpec{.name = "bad", .peak_flops = -1.0})
          .Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioBuilderTest, MissingLinkFailsUnlessSharedMemory) {
  Scenario::Builder builder;
  builder.Hardware(presets::Dl980Core())
      .Compute("perfectly-parallel", {{"total_flops", 1e9}});
  auto distributed = builder.Build();
  ASSERT_FALSE(distributed.ok());
  EXPECT_EQ(distributed.status().code(), StatusCode::kFailedPrecondition);

  // Shared memory defaults the comm model and needs no link.
  auto shared = builder.SharedMemory().Build();
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->comm_name(), "shared-memory");
  EXPECT_DOUBLE_EQ(shared->CommSeconds(16), 0.0);
}

// Regression: this used to reach the comm factory with the default
// zero-bandwidth link and abort on the model constructor's CHECK instead
// of returning a Status.
TEST(ScenarioBuilderTest, SharedMemoryWithLinkPricedCommFails) {
  auto scenario = Scenario::Builder()
                      .Hardware(presets::Dl980Core())
                      .SharedMemory()
                      .Compute("perfectly-parallel", {{"total_flops", 1e9}})
                      .Comm("linear", {{"bits", 1e9}})
                      .Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(scenario.status().message().find("Link"), std::string::npos);

  // An explicit shared-memory comm stays fine without a link.
  auto ok = Scenario::Builder()
                .Hardware(presets::Dl980Core())
                .SharedMemory()
                .Compute("perfectly-parallel", {{"total_flops", 1e9}})
                .Comm("shared-memory")
                .Build();
  EXPECT_TRUE(ok.ok());
}

TEST(ScenarioBuilderTest, UnknownModelNameFails) {
  auto scenario = Fig1Builder().Comm("gossip", {{"bits", 1e9}}).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kNotFound);
  EXPECT_NE(scenario.status().message().find("linear"), std::string::npos);
}

TEST(ScenarioBuilderTest, BadParameterBagFails) {
  auto scenario =
      Fig1Builder().Compute("perfectly-parallel", {{"flops", 1e9}}).Build();
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioBuilderTest, InvalidCountsFail) {
  EXPECT_EQ(Fig1Builder().MaxNodes(0).Build().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Fig1Builder().Supersteps(0).Build().status().code(),
            StatusCode::kInvalidArgument);
  // Analysis::Run sizes its curve and time table by max_nodes, so it is
  // bounded: INT_MAX would end in bad_alloc or hours of evaluation.
  EXPECT_TRUE(Fig1Builder().MaxNodes(1 << 20).Build().ok());
  for (int max_nodes : {(1 << 20) + 1, std::numeric_limits<int>::max()}) {
    auto scenario = Fig1Builder().MaxNodes(max_nodes).Build();
    ASSERT_FALSE(scenario.ok()) << "max_nodes=" << max_nodes;
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scenario.status().message().find("max_nodes"),
              std::string::npos)
        << scenario.status().message();
  }
}

TEST(ScenarioBuilderTest, NonPositiveSuperstepsNeverReachTheSimulator) {
  // SimulateCurve divides per-superstep times by supersteps; a scenario
  // with 0 (or negative) supersteps would turn every simulated point into
  // inf/NaN, so Build() must refuse it up front with a named error.
  for (int supersteps : {0, -1, -100}) {
    auto scenario = Fig1Builder().Supersteps(supersteps).Build();
    ASSERT_FALSE(scenario.ok()) << "supersteps=" << supersteps;
    EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scenario.status().message().find("supersteps"),
              std::string::npos);
  }
}

TEST(ScenarioBuilderTest, BottleneckEscapeHatch) {
  // max_share(n) = 100e9 / n * 1.25 (a 25% imbalance): tcp on the 1 GFLOP/s
  // node is 125/n seconds.
  auto scenario =
      Scenario::Builder()
          .Hardware(presets::GenericGigaflopNode())
          .SharedMemory()
          .MaxNodes(8)
          .Compute([](int n) { return 100.0e9 / n * 1.25; }, "imbalanced")
          .Build();
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario->compute_name(), "imbalanced");
  EXPECT_DOUBLE_EQ(scenario->Seconds(5), 25.0);
}

TEST(ScenarioTest, IsAnAlgorithmModel) {
  auto scenario = Fig1Builder().Build();
  ASSERT_TRUE(scenario.ok());
  const core::AlgorithmModel& model = *scenario;
  EXPECT_EQ(model.name(), "fig1");
  EXPECT_GT(model.Seconds(1), 0.0);
}

TEST(ScenarioBuilderTest, WithCalibrationScalesTheTerms) {
  auto apriori = Fig1Builder().Build();
  auto calibrated = Fig1Builder().WithCalibration(1.25, 0.8).Build();
  ASSERT_TRUE(apriori.ok());
  ASSERT_TRUE(calibrated.ok());
  EXPECT_FALSE(apriori->calibrated());
  EXPECT_TRUE(calibrated->calibrated());
  EXPECT_DOUBLE_EQ(calibrated->compute_coefficient(), 1.25);
  EXPECT_DOUBLE_EQ(calibrated->comm_coefficient(), 0.8);
  for (int n : {1, 7, 14, 30}) {
    EXPECT_DOUBLE_EQ(calibrated->ComputeSeconds(n),
                     1.25 * apriori->ComputeSeconds(n));
    EXPECT_DOUBLE_EQ(calibrated->CommSeconds(n),
                     0.8 * apriori->CommSeconds(n));
    EXPECT_DOUBLE_EQ(calibrated->Seconds(n),
                     calibrated->ComputeSeconds(n) +
                         calibrated->CommSeconds(n));
  }
}

TEST(ScenarioBuilderTest, RejectsInvalidCalibrationCoefficients) {
  EXPECT_FALSE(Fig1Builder().WithCalibration(0.0, 1.0).Build().ok());
  EXPECT_FALSE(Fig1Builder().WithCalibration(1.0, -2.0).Build().ok());
  EXPECT_FALSE(
      Fig1Builder().WithCalibration(std::nan(""), 1.0).Build().ok());
}

TEST(ScenarioTest, CalibratedCopyComposesAndRenames) {
  auto apriori = Fig1Builder().Build();
  ASSERT_TRUE(apriori.ok());
  Scenario once = apriori->Calibrated(1.25, 0.8);
  EXPECT_EQ(once.name(), "fig1+calibrated");
  Scenario twice = once.Calibrated(2.0, 1.0, "+again");
  EXPECT_EQ(twice.name(), "fig1+calibrated+again");
  EXPECT_DOUBLE_EQ(twice.compute_coefficient(), 2.5);
  EXPECT_DOUBLE_EQ(twice.comm_coefficient(), 0.8);
  // The original is untouched (copies share only the immutable superstep).
  EXPECT_FALSE(apriori->calibrated());
  EXPECT_DOUBLE_EQ(apriori->Seconds(14),
                   apriori->ComputeSeconds(14) + apriori->CommSeconds(14));
}

}  // namespace
}  // namespace dmlscale::api
