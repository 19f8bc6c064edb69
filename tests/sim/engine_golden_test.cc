// Bit-pattern goldens for the sequential sims (tree reduce and broadcast,
// parameter server, per-link DES: each a plain EventHeap loop whose
// equal-time events run in push order), the generic superstep loop, and
// the contended-network front door (EXPECT_EQ against std::bit_cast'ed
// doubles, never EXPECT_NEAR). Each value equals what the retired
// closure-based reference simulator produced on the same inputs, so any
// drift here means a change to arithmetic, event order (the push-order
// tie rule included), RNG draw order (SampleJitter), transfer pricing or
// topology routing.

#include <bit>
#include <cstdint>
#include <memory>
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

/// A golden value at node count `n`; the trailing comments give it in
/// decimal.
struct Golden {
  int n;
  uint64_t bits;
};

double Pinned(uint64_t bits) { return std::bit_cast<double>(bits); }

core::LinkSpec Gigabit() {
  return core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-5};
}

TEST(EngineGoldenTest, TreeReduceMatchesGolden) {
  constexpr Golden kGoldens[] = {
      {1, UINT64_C(0x0000000000000000)},    // 0
      {2, UINT64_C(0x3fe23d859c8c9321)},    // 0.57001000000000002
      {3, UINT64_C(0x3ff1eb9a176ddacf)},    // 1.12002
      {7, UINT64_C(0x4001d71f36262cba)},    // 2.2300399999999998
      {16, UINT64_C(0x400b1ed7c6fbd273)},   // 3.3900599999999996
      {33, UINT64_C(0x401270b8cfbfc654)},   // 4.61008
      {100, UINT64_C(0x401d0014f8b588e5)},  // 7.2500800000000014
  };
  OverheadModel overhead;
  overhead.serialize_s_per_bit = 1e-10;
  for (const Golden& golden : kGoldens) {
    const int n = golden.n;
    std::vector<double> ready(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      ready[static_cast<size_t>(i)] = 0.01 * i * ((i % 3) + 1);
    }
    Result<double> done = SimulateTreeReduce(ready, 5e8, Gigabit(), overhead);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done.value(), Pinned(golden.bits)) << "n=" << n;
  }
}

TEST(EngineGoldenTest, TreeBroadcastMatchesGolden) {
  constexpr Golden kGoldens[] = {
      {1, UINT64_C(0x3fd0000000000000)},    // 0.25
      {2, UINT64_C(0x3ff4000a7c5ac472)},    // 1.2500100000000001
      {5, UINT64_C(0x400a000fba8826ab)},    // 3.2500300000000002
      {8, UINT64_C(0x4011000a7c5ac472)},    // 4.2500400000000003
      {31, UINT64_C(0x4020800a7c5ac471)},   // 8.2500799999999987
      {64, UINT64_C(0x4024800d1b71758d)},   // 10.250099999999998
      {200, UINT64_C(0x402a80110a137f37)},  // 13.250129999999997
  };
  for (const Golden& golden : kGoldens) {
    Result<double> done = SimulateTreeBroadcast(golden.n, 0.25, 1e9, Gigabit(),
                                                OverheadModel::None());
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done.value(), Pinned(golden.bits)) << "n=" << golden.n;
  }
}

TEST(EngineGoldenTest, ParamServerMatchesGolden) {
  struct PsGolden {
    int n;
    uint64_t updates_per_sec;
    uint64_t mean_staleness;
    uint64_t max_staleness;
    uint64_t server_utilization;
    int64_t completed_updates;
  };
  // Decimal: updates/s, mean staleness, max staleness, utilization.
  constexpr PsGolden kGoldens[] = {
      // 5.7139903501551581, 0, 0, 0.36447639780189728
      {1, UINT64_C(0x4016db20494e4dd1), UINT64_C(0x0000000000000000),
       UINT64_C(0x0000000000000000), UINT64_C(0x3fd75394d02e4635), 150},
      // 10.541866469513097, 0.99337748344370858, 2, 0.67021137819421062
      {2, UINT64_C(0x4025156f859ab729), UINT64_C(0x3fefc9bf937f26fe),
       UINT64_C(0x4000000000000000), UINT64_C(0x3fe5725f21d80a03), 151},
      // 15.85138828932166, 5.865384615384615, 8, 0.99172788271653534
      {7, UINT64_C(0x402fb3e92a75aaf7), UINT64_C(0x4017762762762762),
       UINT64_C(0x4020000000000000), UINT64_C(0x3fefbc3c1cd9901f), 156},
      // 16.323252161215233, 14.272727272727273, 19, 0.99403659221751994
      {16, UINT64_C(0x403052c0a754c7df), UINT64_C(0x402c8ba2e8ba2e8c),
       UINT64_C(0x4033000000000000), UINT64_C(0x3fefcf25d3d33fc9), 165},
  };
  ParamServerConfig config{.ops_per_update = 1e8,
                           .message_bits = 32e6,
                           .node = core::NodeSpec{.name = "u",
                                                  .peak_flops = 1e9,
                                                  .efficiency = 1.0},
                           .worker_link = Gigabit(),
                           .server_link = Gigabit(),
                           .overhead = OverheadModel::None(),
                           .target_updates = 150};
  // Stragglers draw from the rng in event order, so the goldens pin the
  // draw order too. Workers that finish after the target still land their
  // in-flight pushes, hence more than 150 completed updates at n > 1.
  config.overhead.straggler_sigma = 0.4;
  for (const PsGolden& golden : kGoldens) {
    Pcg32 rng(21);
    Result<ParamServerStats> stats =
        SimulateParameterServer(config, golden.n, &rng);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->updates_per_sec, Pinned(golden.updates_per_sec))
        << "n=" << golden.n;
    EXPECT_EQ(stats->mean_staleness, Pinned(golden.mean_staleness))
        << "n=" << golden.n;
    EXPECT_EQ(stats->max_staleness, Pinned(golden.max_staleness))
        << "n=" << golden.n;
    EXPECT_EQ(stats->server_utilization, Pinned(golden.server_utilization))
        << "n=" << golden.n;
    EXPECT_EQ(stats->completed_updates, golden.completed_updates)
        << "n=" << golden.n;
  }
}

TEST(EngineGoldenTest, ShuffleRoundOnLoadedFatTreeMatchesGolden) {
  constexpr Golden kGoldens[] = {
      {2, UINT64_C(0x3fd2adf43d1a0695)},   // 0.29186731306990882
      {8, UINT64_C(0x3fd62f8e37490f80)},   // 0.34665255927051675
      {32, UINT64_C(0x3fce5d8e096a6ffd)},  // 0.2372300668693014
  };
  const core::LinkSpec edge{.bandwidth_bps = 0.94e9, .latency_s = 37e-6};
  core::NetworkSpec network{std::make_shared<core::FatTreeTopology>(4, 4.0),
                            std::make_shared<core::Mm1QueueModel>(0.3)};
  core::ShuffleComm shuffle(64.0 * 12e6, edge, network);
  for (const Golden& golden : kGoldens) {
    core::TrafficPattern pattern = shuffle.Traffic(golden.n);
    EXPECT_EQ(SimulatePatternSeconds(pattern, golden.n, edge, network),
              Pinned(golden.bits))
        << "n=" << golden.n;
  }
}

TEST(EngineGoldenTest, ContendedRingCommSecondsMatchesGolden) {
  constexpr Golden kGoldens[] = {
      {2, UINT64_C(0x3fd99ce075f6fd22)},   // 0.4002
      {9, UINT64_C(0x3fe6dba2f9ac885a)},   // 0.71431111111111112
      {24, UINT64_C(0x3fe8d3e654ec79ca)},  // 0.7758666666666667
  };
  const core::LinkSpec edge{.bandwidth_bps = 1e9, .latency_s = 5e-5};
  core::NetworkSpec network{std::make_shared<core::FatTreeTopology>(4, 2.0),
                            std::make_shared<core::Mm1QueueModel>(0.2)};
  core::RingAllReduceComm ring(32e7, edge, network);
  for (const Golden& golden : kGoldens) {
    EXPECT_EQ(SimulateCommSeconds(ring, golden.n, edge, network),
              Pinned(golden.bits))
        << "n=" << golden.n;
  }
}

TEST(EngineGoldenTest, GenericSuperstepMatchesGolden) {
  constexpr Golden kGoldens[] = {
      {1, UINT64_C(0x4048ef8674bff0de)},   // 49.871290773125779
      {3, UINT64_C(0x40351bbb2eae0a22)},   // 21.108324925890095
      {12, UINT64_C(0x401b232c2718bcaa)},  // 6.7843481167648552
      {40, UINT64_C(0x40073e25d9843392)},  // 2.9053456300229721
  };
  SuperstepSimConfig config;
  config.message_bits = 2e6;
  config.overhead.sched_fixed_s = 0.001;
  config.overhead.sched_per_worker_s = 2e-5;
  config.overhead.serialize_s_per_bit = 1e-9;
  config.overhead.straggler_sigma = 0.25;
  config.supersteps = 5;
  for (const Golden& golden : kGoldens) {
    Pcg32 rng(77);
    Result<double> mean = SimulateGenericSuperstep(
        config, golden.n, 50.0 / golden.n, 0.02 * golden.n, &rng);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), Pinned(golden.bits)) << "n=" << golden.n;
  }
}

TEST(EngineGoldenTest, ContendedAnalysisMapeMatchesGolden) {
  // The full front door, simulation and contended DES pricing included. The
  // MAPE folds in every simulated point of the curve.
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
  Result<api::AnalysisReport> report = api::Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->contended);
  ASSERT_TRUE(report->model_vs_sim_mape.has_value());
  // 38.652615841111988 %.
  EXPECT_EQ(*report->model_vs_sim_mape, Pinned(UINT64_C(0x40435388ea7736b9)));
}

}  // namespace
}  // namespace dmlscale::sim
