#include "sim/param_server.h"

#include <gtest/gtest.h>

#include <limits>

#include "models/async_gd.h"

namespace dmlscale::sim {
namespace {

core::NodeSpec UnitNode() {
  return core::NodeSpec{.name = "u", .peak_flops = 1e9, .efficiency = 1.0};
}
core::LinkSpec Gigabit() { return core::LinkSpec{.bandwidth_bps = 1e9}; }

ParamServerConfig BasicConfig() {
  return ParamServerConfig{.ops_per_update = 1e8,
                           .message_bits = 32e6,
                           .node = UnitNode(),
                           .worker_link = Gigabit(),
                           .server_link = Gigabit(),
                           .overhead = OverheadModel::None(),
                           .target_updates = 100};
}

TEST(ParamServerConfigTest, Validation) {
  EXPECT_TRUE(BasicConfig().Validate().ok());
  auto bad = BasicConfig();
  bad.ops_per_update = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BasicConfig();
  bad.target_updates = 0;
  EXPECT_FALSE(bad.Validate().ok());

  // Non-finite work, payload or node speed and negative overheads are
  // InvalidArgument from the simulation too, not an engine abort.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double value : {nan, inf}) {
    bad = BasicConfig();
    bad.ops_per_update = value;
    EXPECT_FALSE(bad.Validate().ok()) << value;
    bad = BasicConfig();
    bad.message_bits = value;
    EXPECT_FALSE(bad.Validate().ok()) << value;
    bad = BasicConfig();
    bad.node.peak_flops = value;
    EXPECT_FALSE(bad.Validate().ok()) << value;
  }
  bad = BasicConfig();
  bad.overhead.sched_fixed_s = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = BasicConfig();
  bad.overhead.serialize_s_per_bit = nan;
  EXPECT_FALSE(bad.Validate().ok());

  bad = BasicConfig();
  bad.ops_per_update = nan;
  Pcg32 rng(1);
  EXPECT_EQ(SimulateParameterServer(bad, 4, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParamServerSimTest, SingleWorkerThroughputMatchesModel) {
  Pcg32 rng(1);
  auto stats = SimulateParameterServer(BasicConfig(), 1, &rng);
  ASSERT_TRUE(stats.ok());
  // Cycle: compute 0.1 + push 0.032 + pull 0.032 (cut-through transfers,
  // matching the closed-form model's single-hop accounting).
  models::GdWorkload workload{.ops_per_example = 1e6,
                              .batch_size = 100.0,
                              .model_params = 1e6,
                              .bits_per_param = 32.0};
  models::AsyncGdModel model(workload, UnitNode(), Gigabit());
  EXPECT_GT(stats->updates_per_sec, 0.0);
  EXPECT_NEAR(stats->updates_per_sec, model.ThroughputUpdatesPerSec(1),
              0.10 * model.ThroughputUpdatesPerSec(1));
  EXPECT_DOUBLE_EQ(stats->mean_staleness, 0.0);
  EXPECT_EQ(stats->completed_updates, 100);
}

TEST(ParamServerSimTest, ThroughputSaturatesWithWorkers) {
  Pcg32 rng(2);
  auto config = BasicConfig();
  config.target_updates = 300;
  double t2 = SimulateParameterServer(config, 2, &rng)->updates_per_sec;
  double t8 = SimulateParameterServer(config, 8, &rng)->updates_per_sec;
  double t32 = SimulateParameterServer(config, 32, &rng)->updates_per_sec;
  EXPECT_GT(t8, t2 * 1.5);   // still climbing
  EXPECT_LT(t32, t8 * 1.5);  // saturated by the server NIC
  // NIC ceiling: one push + one pull (2 * 0.032 s) per steady-state
  // update; allow a transient margin (the final updates skip their pull).
  EXPECT_LT(t32, 1.10 / 0.064);
}

TEST(ParamServerSimTest, ServerUtilizationApproachesOneAtScale) {
  Pcg32 rng(3);
  auto config = BasicConfig();
  config.target_updates = 300;
  auto few = SimulateParameterServer(config, 1, &rng);
  auto many = SimulateParameterServer(config, 32, &rng);
  ASSERT_TRUE(few.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_LT(few->server_utilization, 0.7);
  EXPECT_GT(many->server_utilization, 0.9);
}

TEST(ParamServerSimTest, StalenessGrowsWithWorkers) {
  Pcg32 rng(4);
  auto config = BasicConfig();
  config.target_updates = 400;
  auto s1 = SimulateParameterServer(config, 1, &rng);
  auto s4 = SimulateParameterServer(config, 4, &rng);
  auto s16 = SimulateParameterServer(config, 16, &rng);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s4.ok());
  ASSERT_TRUE(s16.ok());
  EXPECT_DOUBLE_EQ(s1->mean_staleness, 0.0);
  EXPECT_GT(s4->mean_staleness, 1.0);
  EXPECT_GT(s16->mean_staleness, s4->mean_staleness);
  EXPECT_GE(s16->max_staleness, s16->mean_staleness);
}

TEST(ParamServerSimTest, JitterDoesNotStallProgress) {
  Pcg32 rng(5);
  auto config = BasicConfig();
  config.overhead.straggler_sigma = 0.3;
  config.target_updates = 150;
  auto stats = SimulateParameterServer(config, 8, &rng);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->completed_updates, 150);
  EXPECT_GT(stats->updates_per_sec, 0.0);
}

TEST(ParamServerSimTest, Deterministic) {
  Pcg32 a(6), b(6);
  auto s1 = SimulateParameterServer(BasicConfig(), 4, &a);
  auto s2 = SimulateParameterServer(BasicConfig(), 4, &b);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_DOUBLE_EQ(s1->updates_per_sec, s2->updates_per_sec);
  EXPECT_DOUBLE_EQ(s1->mean_staleness, s2->mean_staleness);
}

TEST(ParamServerSimTest, RejectsBadArgs) {
  Pcg32 rng(7);
  EXPECT_FALSE(SimulateParameterServer(BasicConfig(), 0, &rng).ok());
  EXPECT_FALSE(SimulateParameterServer(BasicConfig(), 2, nullptr).ok());
}

}  // namespace
}  // namespace dmlscale::sim
