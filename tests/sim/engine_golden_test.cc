// Legacy-vs-engine golden equivalence: every consumer migrated onto
// sim::Engine must reproduce the closure-based Simulator's results bit for
// bit (EXPECT_EQ / EXPECT_DOUBLE_EQ, never EXPECT_NEAR). The engine's
// sequential mode replays the legacy (time, schedule-order) total order, so
// any drift here means a port changed arithmetic or event order — exactly
// the regression class these tests exist to catch.

#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "api/presets.h"
#include "api/scenario.h"
#include "core/communication_model.h"
#include "core/network.h"
#include "core/queueing.h"
#include "core/topology.h"
#include "sim/collectives.h"
#include "sim/network_sim.h"
#include "sim/param_server.h"
#include "sim/workloads.h"

namespace dmlscale::sim {
namespace {

core::LinkSpec Gigabit() {
  return core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-5};
}

TEST(EngineGoldenTest, TreeReduceMatchesLegacyBitForBit) {
  OverheadModel overhead;
  overhead.serialize_s_per_bit = 1e-10;
  for (int n : {1, 2, 3, 7, 16, 33, 100}) {
    std::vector<double> ready(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      ready[static_cast<size_t>(i)] = 0.01 * i * ((i % 3) + 1);
    }
    auto legacy = SimulateTreeReduce(ready, 5e8, Gigabit(), overhead,
                                     SimBackend::kLegacy);
    auto engine = SimulateTreeReduce(ready, 5e8, Gigabit(), overhead,
                                     SimBackend::kEngine);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine.value(), legacy.value()) << "n=" << n;
  }
}

TEST(EngineGoldenTest, TreeBroadcastMatchesLegacyBitForBit) {
  for (int n : {1, 2, 5, 8, 31, 64, 200}) {
    auto legacy = SimulateTreeBroadcast(n, 0.25, 1e9, Gigabit(),
                                        OverheadModel::None(),
                                        SimBackend::kLegacy);
    auto engine = SimulateTreeBroadcast(n, 0.25, 1e9, Gigabit(),
                                        OverheadModel::None(),
                                        SimBackend::kEngine);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine.value(), legacy.value()) << "n=" << n;
  }
}

TEST(EngineGoldenTest, ParamServerMatchesLegacyBitForBit) {
  ParamServerConfig config{.ops_per_update = 1e8,
                           .message_bits = 32e6,
                           .node = core::NodeSpec{.name = "u",
                                                  .peak_flops = 1e9,
                                                  .efficiency = 1.0},
                           .worker_link = Gigabit(),
                           .server_link = Gigabit(),
                           .overhead = OverheadModel::None(),
                           .target_updates = 150};
  // Stragglers draw from the rng in event order; the engine port must
  // consume the identical stream.
  config.overhead.straggler_sigma = 0.4;
  for (int n : {1, 2, 7, 16}) {
    Pcg32 legacy_rng(21);
    Pcg32 engine_rng(21);
    auto legacy =
        SimulateParameterServer(config, n, &legacy_rng, SimBackend::kLegacy);
    auto engine =
        SimulateParameterServer(config, n, &engine_rng, SimBackend::kEngine);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine->updates_per_sec, legacy->updates_per_sec) << "n=" << n;
    EXPECT_EQ(engine->mean_staleness, legacy->mean_staleness) << "n=" << n;
    EXPECT_EQ(engine->max_staleness, legacy->max_staleness) << "n=" << n;
    EXPECT_EQ(engine->server_utilization, legacy->server_utilization)
        << "n=" << n;
    EXPECT_EQ(engine->completed_updates, legacy->completed_updates)
        << "n=" << n;
  }
}

TEST(EngineGoldenTest, NetworkRoundMatchesLegacyBitForBit) {
  const core::LinkSpec edge{.bandwidth_bps = 0.94e9, .latency_s = 37e-6};
  core::NetworkSpec network{std::make_shared<core::FatTreeTopology>(4, 4.0),
                            std::make_shared<core::Mm1QueueModel>(0.3)};
  core::ShuffleComm shuffle(64.0 * 12e6, edge, network);
  for (int n : {2, 8, 32}) {
    core::TrafficPattern pattern = shuffle.Traffic(n);
    const double legacy =
        SimulatePatternSeconds(pattern, n, edge, network, SimBackend::kLegacy);
    const double engine =
        SimulatePatternSeconds(pattern, n, edge, network, SimBackend::kEngine);
    EXPECT_EQ(engine, legacy) << "n=" << n;
    EXPECT_GT(engine, 0.0);
  }
}

TEST(EngineGoldenTest, RingCommSecondsMatchesLegacyBitForBit) {
  const core::LinkSpec edge{.bandwidth_bps = 1e9, .latency_s = 5e-5};
  core::NetworkSpec network{std::make_shared<core::FatTreeTopology>(4, 2.0),
                            std::make_shared<core::Mm1QueueModel>(0.2)};
  core::RingAllReduceComm ring(32e7, edge, network);
  for (int n : {2, 9, 24}) {
    EXPECT_EQ(SimulateCommSeconds(ring, n, edge, network, SimBackend::kLegacy),
              SimulateCommSeconds(ring, n, edge, network))
        << "n=" << n;
  }
}

TEST(EngineGoldenTest, GenericSuperstepMatchesLegacyBitForBit) {
  SuperstepSimConfig config;
  config.compute_seconds = [](int n) { return 50.0 / n; };
  config.comm_seconds = [](int n) { return 0.02 * n; };
  config.message_bits = 2e6;
  config.overhead.sched_fixed_s = 0.001;
  config.overhead.sched_per_worker_s = 2e-5;
  config.overhead.serialize_s_per_bit = 1e-9;
  config.overhead.straggler_sigma = 0.25;
  config.supersteps = 5;
  for (int n : {1, 3, 12, 40}) {
    SuperstepSimConfig legacy_config = config;
    legacy_config.backend = SimBackend::kLegacy;
    Pcg32 legacy_rng(77);
    Pcg32 engine_rng(77);
    auto legacy = SimulateGenericSuperstep(legacy_config, n, &legacy_rng);
    auto engine = SimulateGenericSuperstep(config, n, &engine_rng);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine.value(), legacy.value()) << "n=" << n;
  }
}

TEST(EngineGoldenTest, AnalysisReportIsByteIdenticalAcrossBackends) {
  // The full front door, simulation and contended DES pricing included:
  // the printed report must not change by a single byte when the engine
  // replaces the legacy core.
  api::ModelParams comm;
  comm.Set("bits", 4e8)
      .Set("topology", "fat-tree")
      .Set("oversubscription", 4.0)
      .Set("queue", "mm1")
      .Set("load", 0.25);
  auto scenario = api::Scenario::Builder()
                      .Name("golden")
                      .Hardware(api::presets::Fig1Cluster(12))
                      .Compute("perfectly-parallel", {{"total_flops", 9e10}})
                      .Comm("ring-allreduce", comm)
                      .Build();
  ASSERT_TRUE(scenario.ok());

  api::AnalysisOptions options;
  options.simulate = true;
  options.sim_supersteps = 2;
  options.overhead.straggler_sigma = 0.3;
  options.overhead.sched_fixed_s = 0.005;

  options.sim_backend = SimBackend::kLegacy;
  auto legacy = api::Analysis::Run(*scenario, options);
  options.sim_backend = SimBackend::kEngine;
  auto engine = api::Analysis::Run(*scenario, options);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(legacy->contended);

  std::ostringstream legacy_out;
  std::ostringstream engine_out;
  api::PrintReport(*legacy, legacy_out);
  api::PrintReport(*engine, engine_out);
  EXPECT_EQ(engine_out.str(), legacy_out.str());
  EXPECT_FALSE(engine_out.str().empty());
}

}  // namespace
}  // namespace dmlscale::sim
