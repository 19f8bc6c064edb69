#include "models/graphical_inference.h"

#include <gtest/gtest.h>

#include <cmath>

#include "api/scenario.h"
#include "core/speedup.h"

namespace dmlscale::models {
namespace {

TEST(BpOperationsPerEdgeTest, FormulaSectionVB) {
  // c(S) = S + 2 (S + S^2); the paper uses S = 2 -> 14 operations.
  EXPECT_DOUBLE_EQ(BpOperationsPerEdge(2), 14.0);
  EXPECT_DOUBLE_EQ(BpOperationsPerEdge(3), 3.0 + 2.0 * (3.0 + 9.0));
  EXPECT_DOUBLE_EQ(BpOperationsPerEdge(1), 1.0 + 2.0 * 2.0);
}

TEST(AnalyticDuplicateEdgesTest, FormulaSectionIVB) {
  double v = 1000.0, e = 5000.0;
  int n = 10;
  double expected = 0.5 * (v / n - 1.0) * (v / n) * e / (v * (v - 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(AnalyticDuplicateEdges(v, e, n), expected);
}

TEST(AnalyticDuplicateEdgesTest, SingleWorkerCountsAllEdgesTwice) {
  // With n=1 every edge is internal: Ernd = 2E, Edup should be ~E.
  double v = 1000.0, e = 5000.0;
  double dup = AnalyticDuplicateEdges(v, e, 1);
  EXPECT_NEAR(dup, e, e * 0.01);
}

TEST(MonteCarloEdgeBalanceTest, UniformDegreesNearlyBalanced) {
  std::vector<int64_t> degrees(10000, 10);  // E = 50000
  Pcg32 rng(42);
  auto balance = MonteCarloEdgeBalance(degrees, 10, 20, &rng);
  ASSERT_TRUE(balance.ok());
  // Mean load: 2E/n - Edup = 10000 - ~500 = ~9500.
  EXPECT_NEAR(balance->mean_edges, 10000.0 - AnalyticDuplicateEdges(10000, 50000, 10),
              1.0);
  // Max within a few percent of mean for uniform degrees.
  EXPECT_LT(balance->max_edges / balance->mean_edges, 1.10);
  EXPECT_GE(balance->max_edges, balance->mean_edges);
}

TEST(MonteCarloEdgeBalanceTest, SkewedDegreesImbalance) {
  // One hub with degree 100000 among small-degree vertices: the hub's
  // worker dominates, so max/mean is far above 1.
  std::vector<int64_t> degrees(10000, 10);
  degrees[0] = 100000;
  Pcg32 rng(43);
  auto balance = MonteCarloEdgeBalance(degrees, 16, 10, &rng);
  ASSERT_TRUE(balance.ok());
  EXPECT_GT(balance->max_edges / balance->mean_edges, 5.0);
}

TEST(MonteCarloEdgeBalanceTest, Deterministic) {
  std::vector<int64_t> degrees(1000, 5);
  Pcg32 a(7), b(7);
  auto r1 = MonteCarloEdgeBalance(degrees, 8, 5, &a);
  auto r2 = MonteCarloEdgeBalance(degrees, 8, 5, &b);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->max_edges, r2->max_edges);
}

TEST(MonteCarloEdgeBalanceTest, RejectsBadInput) {
  std::vector<int64_t> degrees(10, 1);
  Pcg32 rng(1);
  EXPECT_FALSE(MonteCarloEdgeBalance({}, 2, 1, &rng).ok());
  EXPECT_FALSE(MonteCarloEdgeBalance(degrees, 0, 1, &rng).ok());
  EXPECT_FALSE(MonteCarloEdgeBalance(degrees, 2, 0, &rng).ok());
  EXPECT_FALSE(MonteCarloEdgeBalance(degrees, 2, 1, nullptr).ok());
  std::vector<int64_t> negative{1, -2, 3};
  EXPECT_FALSE(MonteCarloEdgeBalance(negative, 2, 1, &rng).ok());
}

// Section IV-B's model through the facade: tcp = max_i(E_i) * c(S) / F is
// the bottleneck computation, and tcm is free in shared memory (Section
// V-B) or (bits/B) * r * V * S over a link.
api::Scenario::Builder BpScenario(core::NodeSpec node,
                                  std::function<double(int)> max_edges) {
  double ops = BpOperationsPerEdge(2);
  api::Scenario::Builder builder;
  builder.Hardware(node).Compute(
      [max_edges, ops](int n) { return max_edges(n) * ops; }, "bp");
  return builder;
}

TEST(GraphInferenceScenarioTest, SharedMemoryIgnoresComm) {
  core::NodeSpec node{.name = "n", .peak_flops = 1e9, .efficiency = 1.0};
  api::Scenario model =
      BpScenario(node, [](int n) { return 10000.0 / n; })
          .SharedMemory()
          .Build()
          .value();
  EXPECT_DOUBLE_EQ(model.CommSeconds(8), 0.0);
  // tcp = maxE * c(2) / F = (10000/8) * 14 / 1e9.
  EXPECT_DOUBLE_EQ(model.ComputeSeconds(8), 1250.0 * 14.0 / 1e9);
}

TEST(GraphInferenceScenarioTest, LinearCommFormula) {
  core::NodeSpec node{.name = "n", .peak_flops = 1e9, .efficiency = 1.0};
  // r = 0.8 of V = 1e6 vertices, S = 2 states of 32 bits each.
  api::Scenario model =
      BpScenario(node, [](int n) { return 1e7 / n; })
          .Link(core::LinkSpec{.bandwidth_bps = 1e9})
          .Comm("fixed-volume", {{"bits", 32.0 * 0.8 * 1e6 * 2.0}})
          .Build()
          .value();
  // tcm = 32/B * r * V * S = 32/1e9 * 0.8 * 1e6 * 2 = 0.0512 s.
  EXPECT_NEAR(model.CommSeconds(4), 0.0512, 1e-12);
  EXPECT_DOUBLE_EQ(model.CommSeconds(1), 0.0);
}

TEST(GraphInferenceScenarioTest, SharedMemorySpeedupIndependentOfF) {
  // F cancels out of shared-memory speedups (Section V-B).
  auto max_edges = [](int n) { return 10000.0 / n + 50.0; };
  core::NodeSpec fast{.name = "f", .peak_flops = 1e12, .efficiency = 1.0};
  core::NodeSpec slow{.name = "s", .peak_flops = 1e9, .efficiency = 0.5};
  api::Scenario fast_model =
      BpScenario(fast, max_edges).SharedMemory().Build().value();
  api::Scenario slow_model =
      BpScenario(slow, max_edges).SharedMemory().Build().value();
  auto fast_curve = core::SpeedupAnalyzer::Compute(fast_model, 16);
  auto slow_curve = core::SpeedupAnalyzer::Compute(slow_model, 16);
  ASSERT_TRUE(fast_curve.ok());
  ASSERT_TRUE(slow_curve.ok());
  for (size_t i = 0; i < fast_curve->speedup.size(); ++i) {
    EXPECT_NEAR(fast_curve->speedup[i], slow_curve->speedup[i], 1e-9);
  }
}

TEST(MemoizedMonteCarloMaxEdgesTest, CachesAndReproduces) {
  std::vector<int64_t> degrees(2000, 6);
  auto fn1 = MemoizedMonteCarloMaxEdges(degrees, 5, 99);
  auto fn2 = MemoizedMonteCarloMaxEdges(degrees, 5, 99);
  double a = fn1(8);
  double b = fn1(8);  // cached
  double c = fn2(8);  // fresh estimator, same seed
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(a, c);
  EXPECT_GT(fn1(2), fn1(8));  // more workers -> smaller max share
}

// Property: the Monte-Carlo max share shrinks as workers are added.
class EdgeBalanceMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(EdgeBalanceMonotoneTest, MaxSharePerWorkerShrinks) {
  int n = GetParam();
  std::vector<int64_t> degrees;
  Pcg32 gen(5);
  for (int i = 0; i < 3000; ++i) {
    degrees.push_back(1 + static_cast<int64_t>(gen.NextBounded(20)));
  }
  auto fn = MemoizedMonteCarloMaxEdges(degrees, 8, 123);
  EXPECT_GT(fn(n), fn(2 * n) * 0.99);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EdgeBalanceMonotoneTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace dmlscale::models
