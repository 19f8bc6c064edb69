#include <gtest/gtest.h>

#include <cmath>

#include "api/scenario.h"
#include "bp/bp.h"
#include "bp/parallel_bp.h"
#include "core/planner.h"
#include "core/speedup.h"
#include "core/validation.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "models/gradient_descent.h"
#include "models/graphical_inference.h"
#include "models/neural_cost.h"
#include "sim/workloads.h"

namespace dmlscale {
namespace {

// Fig. 2's Spark model (Section V-A) through the facade: perfectly parallel
// C * S plus the "spark-gd" collective.
api::Scenario SparkScenario(const models::GdWorkload& workload,
                            const core::NodeSpec& node,
                            const core::LinkSpec& link) {
  return api::Scenario::Builder()
      .Hardware(node)
      .Link(link)
      .Compute("perfectly-parallel",
               {{"total_flops",
                 workload.ops_per_example * workload.batch_size}})
      .Comm("spark-gd", {{"bits", workload.MessageBits()}})
      .Build()
      .value();
}

// ---- Fig. 2 pipeline: analytical Spark model vs simulated cluster ----

TEST(Fig2Integration, ModelTracksSimulatedSparkCluster) {
  models::GdWorkload workload = models::SparkMnistWorkload();
  core::NodeSpec node = core::presets::XeonE3_1240Double();
  core::LinkSpec link{.bandwidth_bps = 1e9};
  api::Scenario model = SparkScenario(workload, node, link);

  sim::GdSimConfig config{
      .total_ops = workload.ops_per_example * workload.batch_size,
      .message_bits = workload.MessageBits(),
      .node = node,
      .link = link,
      .overhead = sim::OverheadModel::None(),
      .iterations = 1};

  std::vector<int> nodes{1, 2, 3, 4, 5, 6, 8, 9, 12, 16};
  std::vector<double> model_speedup, sim_speedup;
  Pcg32 rng(1);
  double sim_t1 = sim::SimulateSparkGdIteration(config, 1, &rng).value();
  double model_t1 = model.Seconds(1);
  for (int n : nodes) {
    model_speedup.push_back(model_t1 / model.Seconds(n));
    sim_speedup.push_back(
        sim_t1 / sim::SimulateSparkGdIteration(config, n, &rng).value());
  }
  // The paper reports MAPE 13.7% between model and measurement; our
  // overhead-free simulator should stay well within 25%.
  auto mape = core::Mape(model_speedup, sim_speedup);
  ASSERT_TRUE(mape.ok());
  EXPECT_LT(mape.value(), 25.0);
}

TEST(Fig2Integration, SimWithOverheadPeaksNearModelOptimum) {
  // With Spark-like overheads, the measured speedup peaks in the
  // neighborhood of the model's optimum (paper: n = 9).
  models::GdWorkload workload = models::SparkMnistWorkload();
  core::NodeSpec node = core::presets::XeonE3_1240Double();
  core::LinkSpec link{.bandwidth_bps = 1e9};
  sim::GdSimConfig config{
      .total_ops = workload.ops_per_example * workload.batch_size,
      .message_bits = workload.MessageBits(),
      .node = node,
      .link = link,
      .overhead = sim::OverheadModel::SparkLike(),
      .iterations = 3};
  Pcg32 rng(2);
  double t1 = sim::SimulateSparkGdIteration(config, 1, &rng).value();
  int best_n = 1;
  double best_s = 1.0;
  for (int n = 2; n <= 16; ++n) {
    double s = t1 / sim::SimulateSparkGdIteration(config, n, &rng).value();
    if (s > best_s) {
      best_s = s;
      best_n = n;
    }
  }
  EXPECT_GE(best_n, 6);
  EXPECT_LE(best_n, 16);
  EXPECT_GT(best_s, 2.5);
}

// ---- Fig. 3 pipeline: weak scaling model vs simulated GPU cluster ----

TEST(Fig3Integration, WeakScalingModelTracksSimulation) {
  models::GdWorkload workload = models::TensorFlowInceptionWorkload();
  core::NodeSpec node = core::presets::NvidiaK40();
  core::LinkSpec link{.bandwidth_bps = 1e9};
  models::WeakScalingSgdModel model(workload, node, link);

  sim::GdSimConfig config{
      .total_ops = workload.ops_per_example * workload.batch_size,
      .message_bits = workload.MessageBits(),
      .node = node,
      .link = link,
      .overhead = sim::OverheadModel::None(),
      .iterations = 1};

  // Per-instance time in the simulation: iteration time / n.
  std::vector<int> nodes{25, 50, 100, 200};
  std::vector<double> model_speedup, sim_speedup;
  Pcg32 rng(3);
  double model_ref = model.Seconds(50);
  double sim_ref =
      sim::SimulateAllReduceSgdIteration(config, 50, &rng).value() / 50.0;
  for (int n : nodes) {
    model_speedup.push_back(model_ref / model.Seconds(n));
    double sim_t =
        sim::SimulateAllReduceSgdIteration(config, n, &rng).value() /
        static_cast<double>(n);
    sim_speedup.push_back(sim_ref / sim_t);
  }
  auto mape = core::Mape(model_speedup, sim_speedup);
  ASSERT_TRUE(mape.ok());
  // Paper reports 1.2% against Chen et al.; allow the simulator's
  // tree-vs-continuous-log discrepancy.
  EXPECT_LT(mape.value(), 20.0);
  // Weak scaling: speedup grows monotonically in n.
  for (size_t i = 1; i < sim_speedup.size(); ++i) {
    EXPECT_GT(sim_speedup[i], sim_speedup[i - 1]);
  }
}

// ---- Fig. 4 pipeline: BP on a power-law graph, shared memory ----

TEST(Fig4Integration, MonteCarloPredictsMeasuredPartitionImbalance) {
  // Build a scaled-down analogue of the DNS graph (power-law degrees),
  // then compare the degree-only Monte-Carlo estimate of max_i(E_i)
  // against real random partitions of the materialized graph.
  Pcg32 rng(4);
  auto g = graph::BarabasiAlbert(20000, 3, &rng);
  ASSERT_TRUE(g.ok());
  auto degrees = g->DegreeSequence();

  const int workers = 16;
  auto estimate =
      models::MonteCarloEdgeBalance(degrees, workers, 15, &rng);
  ASSERT_TRUE(estimate.ok());

  double measured = 0.0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    auto partition =
        graph::RandomPartition(g->num_vertices(), workers, &rng).value();
    auto stats = graph::ComputePartitionStats(*g, partition).value();
    measured += stats.max_edges;
  }
  measured /= trials;
  // The estimator subtracts expected duplicates; the measured value counts
  // internal edges twice, so compare against Ernd max ~ max + dup.
  double dup = models::AnalyticDuplicateEdges(
      static_cast<double>(g->num_vertices()),
      static_cast<double>(g->num_edges()), workers);
  EXPECT_NEAR(estimate->max_edges + dup, measured, 0.15 * measured);
}

TEST(Fig4Integration, SharedMemoryBpSpeedupShapeMatchesPaper) {
  // Theory curve from the Monte-Carlo estimator; "measured" curve from the
  // superstep simulator with GraphLab-like overhead. Expect the paper's
  // qualitative findings: near-linear speedup at low worker counts, then
  // overhead takes over.
  Pcg32 rng(5);
  auto degrees = graph::PowerLawDegreeSequence(100000, 600000, 2.1, 1,
                                               20000, &rng);
  ASSERT_TRUE(degrees.ok());
  auto max_edges = models::MemoizedMonteCarloMaxEdges(*degrees, 10, 77);

  core::NodeSpec node = core::presets::Dl980Core();
  double ops = models::BpOperationsPerEdge(2);

  api::Scenario theory =
      api::Scenario::Builder()
          .Hardware(node)
          .SharedMemory()
          .Compute([max_edges, ops](int n) { return max_edges(n) * ops; },
                   "bp-bottleneck")
          .Build()
          .value();
  auto theory_curve = core::SpeedupAnalyzer::ComputeAt(
      theory, {1, 2, 4, 8, 16, 32, 64}, 1);
  ASSERT_TRUE(theory_curve.ok());
  // Theory: scalable and increasing over this range.
  EXPECT_GT(theory_curve->At(64).value(), theory_curve->At(8).value());
  // Sub-linear but substantial: the degree skew caps the n=8 speedup.
  EXPECT_GT(theory_curve->At(8).value(), 3.0);

  // Simulated measurement with execution overhead scaled to this graph's
  // superstep duration (the preset constants target the full-size graph).
  double t1_compute = max_edges(1) * ops / node.EffectiveFlops();
  sim::OverheadModel overhead;
  overhead.sched_per_worker_s = t1_compute / 2000.0;
  overhead.straggler_sigma = 0.05;
  Pcg32 sim_rng(6);
  double t1 = 0.0;
  std::vector<double> measured;
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    std::vector<double> shares(static_cast<size_t>(n),
                               max_edges(n) * 0.9);  // near-balanced
    shares[0] = max_edges(n);
    sim::BpSimConfig config{.edges_per_worker = shares,
                            .ops_per_edge = ops,
                            .node = node,
                            .overhead = overhead,
                            .supersteps = 3};
    double t = sim::SimulateBpSuperstep(config, &sim_rng).value();
    if (n == 1) t1 = t;
    measured.push_back(t1 / t);
  }
  // Measured speedup is below theory at high n (overhead takes over).
  EXPECT_LT(measured.back(), theory_curve->At(64).value());
  // But both agree reasonably at low n.
  EXPECT_NEAR(measured[2], theory_curve->At(4).value(),
              0.35 * theory_curve->At(4).value());
}

// ---- Capacity planning on top of the Fig. 2 model ----

TEST(PlannerIntegration, AnswersIntroQuestionsOnSparkModel) {
  models::GdWorkload workload = models::SparkMnistWorkload();
  core::NodeSpec node = core::presets::XeonE3_1240Double();
  core::LinkSpec link{.bandwidth_bps = 1e9};
  api::Scenario spark = SparkScenario(workload, node, link);
  // Growing the data scales the computation term; the payload is the
  // model, which does not grow.
  auto time_fn = [&spark](int n, double data_scale) {
    return data_scale * spark.ComputeSeconds(n) + spark.CommSeconds(n);
  };
  core::CapacityPlanner planner(time_fn, 16);

  // Q1: machines to cut the single-node run time 3x.
  auto q1 = planner.NodesToSpeedUp(1, 3.0);
  ASSERT_TRUE(q1.ok());
  EXPECT_GE(q1.value(), 4);
  EXPECT_LE(q1.value(), 8);

  // 10x is beyond the communication-bound peak: not achievable.
  EXPECT_FALSE(planner.NodesToSpeedUp(1, 10.0).ok());

  // Q2: data doubles; more nodes must absorb it.
  auto q2 = planner.NodesForWorkloadGrowth(2, 2.0);
  ASSERT_TRUE(q2.ok());
  EXPECT_GT(q2.value(), 2);
}

// ---- Table I consistency across the analytical and executable stacks ----

TEST(TableIIntegration, WorkloadFactoriesAgreeWithCostCalculators) {
  models::NetworkSpec mnist = models::presets::MnistFullyConnected();
  models::GdWorkload workload = models::SparkMnistWorkload();
  // ops_per_example = 6W; the calculator's TrainingComputations is 6W too.
  EXPECT_NEAR(workload.ops_per_example,
              static_cast<double>(mnist.TrainingComputations()), 0.01 * 6e7);
  EXPECT_NEAR(workload.model_params,
              static_cast<double>(mnist.TotalWeights()), 0.05e6);

  models::NetworkSpec inception = models::presets::InceptionV3();
  models::GdWorkload tf = models::TensorFlowInceptionWorkload();
  EXPECT_NEAR(tf.model_params, static_cast<double>(inception.TotalWeights()),
              0.10 * 25e6);
  EXPECT_NEAR(tf.ops_per_example,
              static_cast<double>(inception.TrainingComputations()),
              0.20 * 15e9);
}

// ---- Parallel BP on a real graph agrees with the model's bottleneck ----

TEST(BpEngineIntegration, ParallelRunMatchesEstimatedWork) {
  Pcg32 rng(7);
  auto g = graph::BarabasiAlbert(600, 3, &rng);
  ASSERT_TRUE(g.ok());
  auto mrf = bp::PairwiseMrf::Random(&*g, 2, 0.3, &rng).value();
  bp::LoopyBp solver(&mrf);
  auto partition = graph::RandomPartition(600, 6, &rng).value();
  auto stats = bp::RunParallelBp(&solver, partition,
                                 {.max_iterations = 30, .tolerance = 1e-7},
                                 3);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->run.converged);
  // The per-worker work the engine actually did equals the partition's
  // degree mass — the quantity the Section IV-B model predicts from
  // degrees alone.
  auto pstats = graph::ComputePartitionStats(*g, partition).value();
  ASSERT_EQ(stats->edges_per_worker.size(), pstats.edges_per_worker.size());
  for (size_t w = 0; w < pstats.edges_per_worker.size(); ++w) {
    EXPECT_DOUBLE_EQ(static_cast<double>(stats->edges_per_worker[w]),
                     pstats.edges_per_worker[w]);
  }
}

}  // namespace
}  // namespace dmlscale
