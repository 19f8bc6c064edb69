#include "models/gradient_descent.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "api/scenario.h"
#include "common/math_util.h"
#include "core/speedup.h"

namespace dmlscale::models {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

core::NodeSpec SparkNode() { return core::presets::XeonE3_1240Double(); }
core::LinkSpec Gigabit() { return core::LinkSpec{.bandwidth_bps = 1e9}; }

// Fig. 2's Spark model (Section V-A) through the facade: tcp = C S / (F n)
// as perfectly parallel work, tcm from the "spark-gd" collective (torrent
// broadcast + two-wave aggregation).
api::Scenario SparkScenario() {
  GdWorkload workload = SparkMnistWorkload();
  return api::Scenario::Builder()
      .Hardware(SparkNode())
      .Link(Gigabit())
      .Compute("perfectly-parallel",
               {{"total_flops",
                 workload.ops_per_example * workload.batch_size}})
      .Comm("spark-gd", {{"bits", workload.MessageBits()}})
      .Build()
      .value();
}

TEST(GdWorkloadTest, Validation) {
  GdWorkload workload = SparkMnistWorkload();
  EXPECT_TRUE(workload.Validate().ok());
  workload.bits_per_param = 16.0;
  EXPECT_FALSE(workload.Validate().ok());
  for (double bad : {0.0, -1.0, std::nan(""), kInf, -kInf}) {
    workload = SparkMnistWorkload();
    workload.batch_size = bad;
    EXPECT_FALSE(workload.Validate().ok()) << "batch_size=" << bad;
    workload = SparkMnistWorkload();
    workload.ops_per_example = bad;
    EXPECT_FALSE(workload.Validate().ok()) << "ops_per_example=" << bad;
    workload = SparkMnistWorkload();
    workload.model_params = bad;
    EXPECT_FALSE(workload.Validate().ok()) << "model_params=" << bad;
  }
}

TEST(GdWorkloadTest, MessageBits) {
  GdWorkload workload = SparkMnistWorkload();
  EXPECT_DOUBLE_EQ(workload.MessageBits(), 64.0 * 12e6);
}

TEST(GenericGdModelTest, FormulaSectionIVA) {
  GdWorkload workload{.ops_per_example = 1e6,
                      .batch_size = 1000.0,
                      .model_params = 1e6,
                      .bits_per_param = 32.0};
  core::NodeSpec node{.name = "n", .peak_flops = 1e9, .efficiency = 1.0};
  GenericGdModel model(workload, node, Gigabit());
  // tcp(4) = 1e9 / (1e9 * 4) = 0.25; tcm(4) = 2 * (32e6/1e9) * 2 = 0.128.
  EXPECT_DOUBLE_EQ(model.ComputeSeconds(4), 0.25);
  EXPECT_DOUBLE_EQ(model.CommSeconds(4), 2.0 * 0.032 * 2.0);
  EXPECT_DOUBLE_EQ(model.Seconds(4),
                   model.ComputeSeconds(4) + model.CommSeconds(4));
  EXPECT_DOUBLE_EQ(model.CommSeconds(1), 0.0);
}

// ---- Fig. 2: the Spark fully connected ANN model ----

TEST(SparkGdScenarioTest, SingleNodeTimeMatchesPaper) {
  api::Scenario model = SparkScenario();
  // t(1) = 6 * 12e6 * 60000 / (0.8 * 105.6e9) = ~51.1 s, pure compute.
  EXPECT_NEAR(model.Seconds(1), 4.32e12 / 84.48e9, 1e-6);
  EXPECT_DOUBLE_EQ(model.CommSeconds(1), 0.0);
}

TEST(SparkGdScenarioTest, CommunicationTermsMatchPaper) {
  api::Scenario model = SparkScenario();
  // tcm(n) = (64W/B) log2(n) + 2 (64W/B) ceil(sqrt(n)); 64W/B = 0.768 s.
  double unit = 64.0 * 12e6 / 1e9;
  EXPECT_NEAR(model.CommSeconds(4), unit * 2.0 + 2.0 * unit * 2.0, 1e-9);
  EXPECT_NEAR(model.CommSeconds(9), unit * std::log2(9.0) + 2.0 * unit * 3.0,
              1e-9);
}

TEST(SparkGdScenarioTest, EvaluatesTheClosedFormExactly) {
  // The link has no latency, so every latency term adds an exact zero and
  // the facade reproduces the Section V-A closed form bit for bit.
  api::Scenario model = SparkScenario();
  GdWorkload workload = SparkMnistWorkload();
  double flops = SparkNode().EffectiveFlops();
  double unit = workload.MessageBits() / Gigabit().bandwidth_bps;
  for (int n = 1; n <= 4096; ++n) {
    double compute = workload.ops_per_example * workload.batch_size /
                     (flops * static_cast<double>(n));
    double comm = 0.0;
    if (n > 1) {
      comm = unit * std::log2(static_cast<double>(n)) +
             2.0 * unit *
                 static_cast<double>(CeilSqrt(static_cast<uint64_t>(n)));
    }
    ASSERT_EQ(model.ComputeSeconds(n), compute) << "n=" << n;
    ASSERT_EQ(model.CommSeconds(n), comm) << "n=" << n;
    ASSERT_EQ(model.Seconds(n), compute + comm) << "n=" << n;
  }
}

TEST(SparkGdScenarioTest, LocalPeakAtNineWorkers) {
  // The paper: "The model suggests that the optimal number of workers is
  // nine" — a local speedup peak caused by the ceil(sqrt(n)) staircase.
  auto curve = core::SpeedupAnalyzer::Compute(SparkScenario(), 10);
  ASSERT_TRUE(curve.ok());
  double s8 = curve->At(8).value();
  double s9 = curve->At(9).value();
  double s10 = curve->At(10).value();
  EXPECT_GT(s9, s8);
  EXPECT_GT(s9, s10);
  EXPECT_GT(s9, 3.5);
  EXPECT_LT(s9, 5.0);
}

TEST(SparkGdScenarioTest, ScalableButSublinear) {
  auto curve = core::SpeedupAnalyzer::Compute(SparkScenario(), 16);
  ASSERT_TRUE(curve.ok());
  EXPECT_TRUE(curve->IsScalable());
  for (size_t i = 0; i < curve->nodes.size(); ++i) {
    EXPECT_LE(curve->speedup[i], static_cast<double>(curve->nodes[i]));
  }
}

// ---- Fig. 3: weak-scaling synchronous SGD ----

TEST(WeakScalingSgdModelTest, PerInstanceTimeAtFifty) {
  WeakScalingSgdModel model(TensorFlowInceptionWorkload(),
                            core::presets::NvidiaK40(), Gigabit());
  // t(50) = (1.92e12/2.14e12 + 1.6 * log2(50)) / 50.
  double compute = 3.0 * 5e9 * 128.0 / 2.14e12;
  double comm = 2.0 * (32.0 * 25e6 / 1e9) * std::log2(50.0);
  EXPECT_NEAR(model.Seconds(50), (compute + comm) / 50.0, 1e-9);
}

TEST(WeakScalingSgdModelTest, InfiniteWeakScalingWithLogComm) {
  // Section V-A: with logarithmic aggregation, once communication is paid
  // at all (n >= 2), adding workers always increases single-instance
  // speedup — infinite weak scaling.
  WeakScalingSgdModel model(TensorFlowInceptionWorkload(),
                            core::presets::NvidiaK40(), Gigabit());
  double prev = model.Seconds(2);
  for (int n = 4; n <= 4096; n *= 2) {
    double t = model.Seconds(n);
    EXPECT_LT(t, prev) << "n=" << n;
    prev = t;
  }
}

TEST(WeakScalingSgdModelTest, LinearCommScalingSaturates) {
  // Section V-A: with linear communication the speedup stops growing.
  WeakScalingSgdModel model(TensorFlowInceptionWorkload(),
                            core::presets::NvidiaK40(), Gigabit(),
                            WeakScalingSgdModel::CommShape::kLinear);
  // Per-instance time approaches 2 * (32W/B) = 1.6 s asymptotically.
  EXPECT_NEAR(model.Seconds(100000), 1.6, 0.01);
  double t1k = model.Seconds(1000);
  double t10k = model.Seconds(10000);
  EXPECT_LT((t1k - t10k) / t1k, 0.05);  // nearly flat
}

TEST(WeakScalingSgdModelTest, SpeedupVersusFiftyMatchesHandComputation) {
  WeakScalingSgdModel model(TensorFlowInceptionWorkload(),
                            core::presets::NvidiaK40(), Gigabit());
  auto curve = core::SpeedupAnalyzer::ComputeAt(model, {50, 100}, 50);
  ASSERT_TRUE(curve.ok());
  EXPECT_NEAR(curve->At(100).value(), model.Seconds(50) / model.Seconds(100),
              1e-12);
  EXPECT_GT(curve->At(100).value(), 1.5);
  EXPECT_LT(curve->At(100).value(), 2.0);
}

class SparkGdMonotoneCommTest : public ::testing::TestWithParam<int> {};

TEST_P(SparkGdMonotoneCommTest, CommNeverDecreases) {
  api::Scenario model = SparkScenario();
  int n = GetParam();
  EXPECT_LE(model.CommSeconds(n), model.CommSeconds(n + 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparkGdMonotoneCommTest,
                         ::testing::Range(1, 40));

}  // namespace
}  // namespace dmlscale::models
