// Integration tests for the Section VI future-work extensions: the async
// parameter-server pipeline, the calibration feedback loop, and the
// time-to-accuracy composition — each across the model and simulator
// stacks.

#include <gtest/gtest.h>

#include <cmath>

#include "api/scenario.h"
#include "core/calibration.h"
#include "core/validation.h"
#include "models/async_gd.h"
#include "models/gradient_descent.h"
#include "sim/param_server.h"
#include "sim/workloads.h"

namespace dmlscale {
namespace {

core::NodeSpec FastNode() {
  return core::NodeSpec{.name = "f", .peak_flops = 10e9, .efficiency = 1.0};
}
core::LinkSpec Gigabit() { return core::LinkSpec{.bandwidth_bps = 1e9}; }

TEST(AsyncIntegration, ModelTracksSimulatorAcrossWorkerCounts) {
  models::GdWorkload workload{.ops_per_example = 1e7,
                              .batch_size = 100.0,
                              .model_params = 4e6,
                              .bits_per_param = 32.0};
  models::AsyncGdModel model(workload, FastNode(), Gigabit());
  sim::ParamServerConfig config{
      .ops_per_update = workload.ops_per_example * workload.batch_size,
      .message_bits = workload.MessageBits(),
      .node = FastNode(),
      .worker_link = Gigabit(),
      .server_link = Gigabit(),
      .overhead = sim::OverheadModel::None(),
      .target_updates = 300};

  std::vector<double> model_throughput, sim_throughput;
  Pcg32 rng(1);
  for (int n : {1, 2, 4, 8, 16, 32}) {
    auto stats = sim::SimulateParameterServer(config, n, &rng);
    ASSERT_TRUE(stats.ok());
    model_throughput.push_back(model.ThroughputUpdatesPerSec(n));
    sim_throughput.push_back(stats->updates_per_sec);
    // Staleness: model says n - 1; simulator within 10%.
    if (n > 1) {
      EXPECT_NEAR(stats->mean_staleness, model.ExpectedStaleness(n),
                  0.1 * model.ExpectedStaleness(n))
          << "n=" << n;
    }
  }
  auto mape = core::Mape(model_throughput, sim_throughput);
  ASSERT_TRUE(mape.ok());
  EXPECT_LT(mape.value(), 6.0);
}

TEST(AsyncIntegration, SyncBeatsAsyncOnlyWhenStalenessIsExpensive) {
  models::GdWorkload workload{.ops_per_example = 1e8,
                              .batch_size = 100.0,
                              .model_params = 4e6,
                              .bits_per_param = 32.0};
  models::WeakScalingSgdModel sync_model(workload, FastNode(), Gigabit());
  models::AsyncGdModel async_model(workload, FastNode(), Gigabit());

  models::ConvergenceModel cheap_staleness{.base_iterations = 1000.0,
                                           .batch_penalty_alpha = 0.6,
                                           .staleness_penalty = 0.001};
  models::ConvergenceModel dear_staleness{.base_iterations = 1000.0,
                                          .batch_penalty_alpha = 0.6,
                                          .staleness_penalty = 1.0};
  const int n = 16;
  // Cheap staleness: async wins (no barrier, same hardware).
  EXPECT_LT(AsyncTimeToAccuracy(cheap_staleness, async_model, n),
            SyncTimeToAccuracy(cheap_staleness, sync_model, n));
  // Very expensive staleness: sync wins.
  EXPECT_GT(AsyncTimeToAccuracy(dear_staleness, async_model, n),
            SyncTimeToAccuracy(dear_staleness, sync_model, n));
}

TEST(CalibrationIntegration, FeedbackLoopImprovesHeldOutPrediction) {
  models::GdWorkload workload = models::SparkMnistWorkload();
  core::NodeSpec assumed = core::presets::XeonE3_1240Double();
  core::LinkSpec link = Gigabit();
  api::Scenario apriori =
      api::Scenario::Builder()
          .Hardware(assumed)
          .Link(link)
          .Compute("perfectly-parallel",
                   {{"total_flops",
                     workload.ops_per_example * workload.batch_size}})
          .Comm("spark-gd", {{"bits", workload.MessageBits()}})
          .Build()
          .value();

  // The "real" cluster is 30% slower per node.
  core::NodeSpec real = assumed;
  real.efficiency *= 0.7;
  sim::GdSimConfig cluster{
      .total_ops = workload.ops_per_example * workload.batch_size,
      .message_bits = workload.MessageBits(),
      .node = real,
      .link = link,
      .overhead = sim::OverheadModel::None(),
      .iterations = 1};

  std::vector<core::TimingSample> probes;
  Pcg32 rng(2);
  for (int n : {1, 2, 3, 4}) {
    probes.push_back(
        {n, sim::SimulateSparkGdIteration(cluster, n, &rng).value()});
  }
  auto fit = core::FitLinearModel(
      {[&](int n) { return apriori.ComputeSeconds(n); },
       [&](int n) { return apriori.CommSeconds(n); }},
      probes);
  ASSERT_TRUE(fit.ok());
  // The compute coefficient discovers the 1/0.7 slowdown.
  EXPECT_NEAR(fit->coefficients[0], 1.0 / 0.7, 0.05);
  ASSERT_GT(fit->coefficients[1], 0.0);
  api::Scenario calibrated =
      apriori.Calibrated(fit->coefficients[0], fit->coefficients[1]);

  // Held-out error shrinks substantially.
  double apriori_err = 0.0, calibrated_err = 0.0;
  for (int n : {6, 8, 12}) {
    double actual = sim::SimulateSparkGdIteration(cluster, n, &rng).value();
    apriori_err += std::fabs(apriori.Seconds(n) - actual) / actual;
    calibrated_err += std::fabs(calibrated.Seconds(n) - actual) / actual;
  }
  EXPECT_LT(calibrated_err, apriori_err * 0.5);
}

TEST(LogisticRegressionWorkloadTest, BehavesLikeAnyGdWorkload) {
  models::GdWorkload workload =
      models::LogisticRegressionWorkload(1e6, 10000.0);
  EXPECT_TRUE(workload.Validate().ok());
  EXPECT_DOUBLE_EQ(workload.ops_per_example, 6e6);
  EXPECT_DOUBLE_EQ(workload.MessageBits(), 64.0 * 1e6);
  models::GenericGdModel model(workload, FastNode(), Gigabit());
  auto curve = core::SpeedupAnalyzer::Compute(model, 32);
  ASSERT_TRUE(curve.ok());
  EXPECT_TRUE(curve->IsScalable());
}

}  // namespace
}  // namespace dmlscale
