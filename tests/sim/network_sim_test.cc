// Discrete-event network simulator vs the analytic contention pricing.
// The DES queues flows on links explicitly (FIFO, cut-through), so it is
// the ground truth the closed forms and the M/M/1 analytic layer are
// checked against: exact agreement on single-bottleneck rounds, <= 15%
// MAPE on the multi-hop patterns the sweep cross-checks (the ISSUE's
// acceptance bar), and strictly slower than the contention-free estimate
// for a loaded fat-tree ring all-reduce.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/communication_model.h"
#include "core/network.h"
#include "core/queueing.h"
#include "core/topology.h"
#include "sim/network_sim.h"

namespace dmlscale::sim {
namespace {

using core::Flow;
using core::LinkSpec;
using core::NetworkSpec;
using core::TrafficPattern;
using core::TrafficRound;

LinkSpec TestLink() {
  return LinkSpec{.bandwidth_bps = 1e9, .latency_s = 0.0};
}

TEST(NetworkSimTest, SingleFlowMatchesAnalyticExactly) {
  const LinkSpec edge{.bandwidth_bps = 1e9, .latency_s = 1e-3};
  NetworkSpec ideal;  // default: ideal switch, queue-free
  TrafficRound round{.flows = {Flow{.src = 0, .dst = 1, .bits = 1e9}},
                     .repeat = 1.0};
  // 1 s of service + 2 hops of latency, in both pricers.
  EXPECT_NEAR(SimulateRoundSeconds(round, 4, edge, ideal), 1.0 + 2e-3, 1e-12);
  EXPECT_NEAR(SimulateRoundSeconds(round, 4, edge, ideal),
              core::RoundSeconds(round, 4, edge, ideal), 1e-12);
}

TEST(NetworkSimTest, FifoDrainMatchesAnalyticMm1OnSingleBottleneck) {
  const LinkSpec edge = TestLink();
  NetworkSpec star{std::make_shared<core::StarTopology>(1.0),
                   std::make_shared<core::Mm1QueueModel>(0.0)};
  // k flows with distinct endpoints all serialize through the backplane;
  // the DES drains them FIFO while the analytic layer prices the drain via
  // the M/M/1 share formula. The two must agree exactly by construction.
  for (int k : {2, 3, 8}) {
    TrafficRound round;
    for (int i = 0; i < k; ++i) {
      round.flows.push_back(Flow{.src = i, .dst = k + i, .bits = 1e8});
    }
    double des = SimulateRoundSeconds(round, 2 * k, edge, star);
    double analytic = core::RoundSeconds(round, 2 * k, edge, star);
    EXPECT_NEAR(des, k * 0.1, 1e-9) << "k=" << k;
    EXPECT_NEAR(des, analytic, 1e-9) << "k=" << k;
  }
}

TEST(NetworkSimTest, BackgroundLoadInflatesService) {
  const LinkSpec edge = TestLink();
  NetworkSpec loaded{std::make_shared<core::StarTopology>(1.0),
                     std::make_shared<core::Mm1QueueModel>(0.5)};
  TrafficRound round{.flows = {Flow{.src = 0, .dst = 1, .bits = 1e9}},
                     .repeat = 1.0};
  // 50% exogenous utilization halves every link's usable bandwidth.
  EXPECT_NEAR(SimulateRoundSeconds(round, 4, edge, loaded), 2.0, 1e-9);
}

TEST(NetworkSimTest, DeterministicAcrossRepeatedRuns) {
  const LinkSpec edge{.bandwidth_bps = 0.94e9, .latency_s = 37e-6};
  NetworkSpec network{std::make_shared<core::FatTreeTopology>(4, 4.0),
                      std::make_shared<core::Mm1QueueModel>(0.3)};
  core::ShuffleComm shuffle(64.0 * 12e6, edge, network);
  TrafficPattern pattern = shuffle.Traffic(32);
  double first = SimulatePatternSeconds(pattern, 32, edge, network);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(SimulatePatternSeconds(pattern, 32, edge, network), first);
  }
}

TEST(NetworkSimTest, LoadedFatTreeRingExceedsContentionFreeEstimate) {
  // The ISSUE's acceptance scenario: ring all-reduce on a 4:1-oversubscribed
  // fat-tree under 30% background load must price ABOVE the paper's
  // contention-free closed form — in the DES and in the analytic layer.
  const LinkSpec edge{.bandwidth_bps = 1e9, .latency_s = 50e-6};
  const double bits = 64.0 * 12e6;
  NetworkSpec contended{std::make_shared<core::FatTreeTopology>(4, 4.0),
                        std::make_shared<core::Mm1QueueModel>(0.3)};
  core::RingAllReduceComm ideal_ring(bits, edge);
  core::RingAllReduceComm contended_ring(bits, edge, contended);
  for (int n : {4, 8, 16, 32, 64}) {
    double contention_free = ideal_ring.Seconds(n);
    double analytic = contended_ring.Seconds(n);
    double des = SimulatePatternSeconds(contended_ring.Traffic(n), n, edge,
                                        contended);
    EXPECT_GT(analytic, contention_free) << "n=" << n;
    EXPECT_GT(des, contention_free) << "n=" << n;
  }
}

TEST(NetworkSimTest, RingIsOneRoundRepeatedTwiceNMinusOne) {
  // The ring's 2(n-1) identical shifts are one n-flow round with
  // repeat = 2(n-1), routed and priced once, then multiplied. Against the
  // explicit 2(n-1)-term sum this moves only low-order bits on contended
  // fabrics, in the analytic pricer and in the DES alike.
  const LinkSpec edge{.bandwidth_bps = 1e9, .latency_s = 50e-6};
  const double bits = 64.0 * 12e6;
  std::vector<NetworkSpec> fabrics;
  fabrics.push_back({std::make_shared<core::FatTreeTopology>(4, 4.0),
                     std::make_shared<core::Mm1QueueModel>(0.3)});
  fabrics.push_back({std::make_shared<core::Mesh2dTopology>(0),
                     std::make_shared<core::Mm1QueueModel>(0.2)});
  fabrics.push_back({std::make_shared<core::StarTopology>(1.0),
                     std::make_shared<core::Mm1QueueModel>(0.0)});
  for (const NetworkSpec& network : fabrics) {
    core::RingAllReduceComm ring(bits, edge, network);
    EXPECT_TRUE(ring.Traffic(1).rounds.empty());
    for (int n : {2, 5, 17, 64}) {
      const TrafficPattern pattern = ring.Traffic(n);
      ASSERT_EQ(pattern.rounds.size(), 1u) << "n=" << n;
      TrafficRound step = pattern.rounds[0];
      EXPECT_EQ(step.repeat, 2.0 * (n - 1)) << "n=" << n;
      ASSERT_EQ(step.flows.size(), static_cast<size_t>(n)) << "n=" << n;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(step.flows[static_cast<size_t>(i)].src, i);
        EXPECT_EQ(step.flows[static_cast<size_t>(i)].dst, (i + 1) % n);
      }

      step.repeat = 1.0;
      double analytic_sum = 0.0;
      double des_sum = 0.0;
      for (int r = 0; r < 2 * (n - 1); ++r) {
        analytic_sum += core::RoundSeconds(step, n, edge, network);
        des_sum += SimulateRoundSeconds(step, n, edge, network);
      }
      EXPECT_NEAR(ring.Seconds(n), analytic_sum, 1e-12 * analytic_sum)
          << network.Decoration() << " n=" << n;
      EXPECT_NEAR(SimulateCommSeconds(ring, n, edge, network), des_sum,
                  1e-12 * des_sum)
          << network.Decoration() << " n=" << n;
    }
  }
}

TEST(NetworkSimTest, AnalyticTracksDesWithin15PercentMape) {
  // The sweep's cross-check bar, asserted at the unit level: across the
  // collectives and fabrics the topology ablation sweeps, the analytic
  // M/M/1 pricing stays within 15% mean absolute percentage error of the
  // per-link discrete-event simulation.
  const LinkSpec edge{.bandwidth_bps = 1e9, .latency_s = 50e-6};
  const double bits = 64.0 * 12e6;
  std::vector<NetworkSpec> fabrics;
  fabrics.push_back({std::make_shared<core::FatTreeTopology>(4, 4.0),
                     std::make_shared<core::Mm1QueueModel>(0.3)});
  fabrics.push_back({std::make_shared<core::StarTopology>(1.0),
                     std::make_shared<core::Mm1QueueModel>(0.0)});
  fabrics.push_back({std::make_shared<core::Mesh2dTopology>(0),
                     std::make_shared<core::Mm1QueueModel>(0.2)});

  for (const NetworkSpec& network : fabrics) {
    std::vector<std::unique_ptr<core::CommunicationModel>> models;
    models.push_back(
        std::make_unique<core::RingAllReduceComm>(bits, edge, network));
    models.push_back(
        std::make_unique<core::TreeComm>(bits, edge, 2.0, network));
    models.push_back(
        std::make_unique<core::RecursiveDoublingComm>(bits, edge, network));
    for (const auto& model : models) {
      double mape = 0.0;
      int samples = 0;
      for (int n : {4, 8, 16, 32}) {
        double analytic = model->Seconds(n);
        double des =
            SimulatePatternSeconds(model->Traffic(n), n, edge, network);
        ASSERT_GT(des, 0.0) << model->label() << " n=" << n;
        mape += std::abs(analytic - des) / des;
        ++samples;
      }
      mape = 100.0 * mape / samples;
      EXPECT_LE(mape, 15.0) << model->label() << " on "
                            << network.Decoration();
    }
  }
}

}  // namespace
}  // namespace dmlscale::sim
