#include "sim/collectives.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/math_util.h"

namespace dmlscale::sim {
namespace {

core::LinkSpec Gigabit() { return core::LinkSpec{.bandwidth_bps = 1e9}; }
OverheadModel None() { return OverheadModel::None(); }

std::vector<double> Zeros(int n) { return std::vector<double>(n, 0.0); }

TEST(TreeReduceTest, SingleNodeIsItsReadyTime) {
  auto t = SimulateTreeReduce({3.5}, 1e9, Gigabit(), None());
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 3.5);
}

TEST(TreeReduceTest, TwoNodesOneTransfer) {
  auto t = SimulateTreeReduce(Zeros(2), 1e9, Gigabit(), None());
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 1.0);
}

TEST(TreeReduceTest, BalancedTreeMatchesSequentialReceivePattern) {
  // Root (0) has children 1, 2; each leaf sends 1s; root receives them
  // sequentially over its single link: 2 transfers = 2s.
  auto t = SimulateTreeReduce(Zeros(3), 1e9, Gigabit(), None());
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 2.0);
}

TEST(TreeReduceTest, DepthGrowsLogarithmically) {
  auto t15 = SimulateTreeReduce(Zeros(15), 1e8, Gigabit(), None());
  auto t255 = SimulateTreeReduce(Zeros(255), 1e8, Gigabit(), None());
  ASSERT_TRUE(t15.ok());
  ASSERT_TRUE(t255.ok());
  // 255 nodes is 4 levels deeper than 15; each level adds ~2 transfers.
  double transfer = 0.1;
  EXPECT_NEAR(t255.value() - t15.value(), 4 * 2 * transfer, 0.2);
}

TEST(TreeReduceTest, StragglerDelaysCompletion) {
  std::vector<double> ready = Zeros(7);
  ready[5] = 10.0;  // one slow leaf
  auto t = SimulateTreeReduce(ready, 1e8, Gigabit(), None());
  ASSERT_TRUE(t.ok());
  EXPECT_GE(t.value(), 10.0);
  // Without the straggler, far faster.
  auto fast = SimulateTreeReduce(Zeros(7), 1e8, Gigabit(), None());
  EXPECT_LT(fast.value(), 1.0);
}

TEST(TreeBroadcastTest, MatchesClosedFormForSmallTrees) {
  // n=2: root sends once.
  auto t2 = SimulateTreeBroadcast(2, 0.0, 1e9, Gigabit(), None());
  ASSERT_TRUE(t2.ok());
  EXPECT_DOUBLE_EQ(t2.value(), 1.0);
  // n=3: root sends to both children sequentially: 2s.
  auto t3 = SimulateTreeBroadcast(3, 0.0, 1e9, Gigabit(), None());
  ASSERT_TRUE(t3.ok());
  EXPECT_DOUBLE_EQ(t3.value(), 2.0);
}

TEST(TreeBroadcastTest, StartTimeShiftsCompletion) {
  auto a = SimulateTreeBroadcast(8, 0.0, 1e8, Gigabit(), None());
  auto b = SimulateTreeBroadcast(8, 5.0, 1e8, Gigabit(), None());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b.value() - a.value(), 5.0, 1e-12);
}

TEST(TorrentBroadcastTest, CeilLog2Rounds) {
  auto t8 = SimulateTorrentBroadcast(8, 0.0, 1e9, Gigabit(), None());
  ASSERT_TRUE(t8.ok());
  EXPECT_DOUBLE_EQ(t8.value(), 3.0);
  auto t9 = SimulateTorrentBroadcast(9, 0.0, 1e9, Gigabit(), None());
  EXPECT_DOUBLE_EQ(t9.value(), 4.0);
  auto t1 = SimulateTorrentBroadcast(1, 2.0, 1e9, Gigabit(), None());
  EXPECT_DOUBLE_EQ(t1.value(), 2.0);
}

TEST(TwoWaveReduceTest, MatchesClosedFormWhenSynchronized) {
  // With all nodes ready at 0, the two-wave reduce costs about
  // 2 * ceil(sqrt(n)) transfers (the paper's closed form), slightly less
  // because group sizes are uneven.
  for (int n : {4, 9, 16, 25}) {
    auto t = SimulateTwoWaveReduce(Zeros(n), 1e9, Gigabit(), None());
    ASSERT_TRUE(t.ok());
    double closed_form =
        2.0 * static_cast<double>(CeilSqrt(static_cast<uint64_t>(n)));
    EXPECT_LE(t.value(), closed_form + 1e-9) << n;
    EXPECT_GE(t.value(), closed_form * 0.5) << n;
  }
}

TEST(TwoWaveReduceTest, SingleNodeFree) {
  auto t = SimulateTwoWaveReduce({7.0}, 1e9, Gigabit(), None());
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 7.0);
}

TEST(CollectivesTest, SerializationOverheadSlowsTransfers) {
  OverheadModel overhead;
  overhead.serialize_s_per_bit = 1e-9;  // doubles the effective cost
  auto base = SimulateTreeReduce(Zeros(4), 1e9, Gigabit(), None());
  auto slow = SimulateTreeReduce(Zeros(4), 1e9, Gigabit(), overhead);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_NEAR(slow.value(), 2.0 * base.value(), 1e-9);
}

TEST(CollectivesTest, RejectEmptyAndBadInputs) {
  EXPECT_FALSE(SimulateTreeReduce({}, 1e9, Gigabit(), None()).ok());
  EXPECT_FALSE(SimulateTreeReduce({0.0}, -1.0, Gigabit(), None()).ok());
  EXPECT_FALSE(
      SimulateTreeReduce({0.0}, 1e9, core::LinkSpec{}, None()).ok());
  EXPECT_FALSE(SimulateTreeBroadcast(0, 0.0, 1e9, Gigabit(), None()).ok());

  // Non-finite or negative times and payloads are an error Status, never an
  // engine abort on an event scheduled at NaN or before t = 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -1.0}) {
    EXPECT_FALSE(SimulateTreeReduce({0.0, bad, 0.0}, 1e9, Gigabit(), None())
                     .ok())
        << bad;
    EXPECT_FALSE(SimulateTreeReduce(Zeros(3), bad, Gigabit(), None()).ok())
        << bad;
    EXPECT_FALSE(SimulateTreeBroadcast(3, bad, 1e9, Gigabit(), None()).ok())
        << bad;
    OverheadModel overhead;
    overhead.serialize_s_per_bit = bad;
    EXPECT_FALSE(SimulateTreeReduce(Zeros(3), 1e9, Gigabit(), overhead).ok())
        << bad;
  }
  EXPECT_FALSE(SimulateTwoWaveReduce({0.0, nan}, 1e9, Gigabit(), None()).ok());
  EXPECT_FALSE(SimulateTorrentBroadcast(4, nan, 1e9, Gigabit(), None()).ok());
}

// Property: simulated collectives are weakly slower than their idealized
// closed forms (sequential receives, stragglers) but within small factors.
class CollectiveVsClosedFormTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveVsClosedFormTest, TreeReduceNearLog) {
  int n = GetParam();
  auto t = SimulateTreeReduce(Zeros(n), 1e8, Gigabit(), None());
  ASSERT_TRUE(t.ok());
  double transfer = 0.1;
  double depth = std::ceil(std::log2(static_cast<double>(n + 1)));
  // Each level: at most 2 sequential child receives.
  EXPECT_LE(t.value(), 2.0 * depth * transfer + 1e-9);
  EXPECT_GE(t.value(), transfer);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CollectiveVsClosedFormTest,
                         ::testing::Values(2, 3, 4, 7, 8, 15, 16, 31, 63));

}  // namespace
}  // namespace dmlscale::sim
