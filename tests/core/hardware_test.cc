#include "core/hardware.h"

#include <gtest/gtest.h>

#include <limits>

namespace dmlscale::core {
namespace {

TEST(NodeSpecTest, EffectiveFlops) {
  NodeSpec node{.name = "test", .peak_flops = 100.0, .efficiency = 0.8};
  EXPECT_DOUBLE_EQ(node.EffectiveFlops(), 80.0);
}

TEST(NodeSpecTest, ValidationRejectsBadValues) {
  EXPECT_FALSE((NodeSpec{.name = "x", .peak_flops = 0.0}).Validate().ok());
  EXPECT_FALSE((NodeSpec{.name = "x", .peak_flops = 1.0, .efficiency = 0.0})
                   .Validate()
                   .ok());
  EXPECT_FALSE((NodeSpec{.name = "x", .peak_flops = 1.0, .efficiency = 1.5})
                   .Validate()
                   .ok());
  EXPECT_TRUE((NodeSpec{.name = "x", .peak_flops = 1.0, .efficiency = 1.0})
                  .Validate()
                  .ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE((NodeSpec{.name = "x", .peak_flops = bad}).Validate().ok())
        << bad;
    EXPECT_FALSE((NodeSpec{.name = "x", .peak_flops = 1.0, .efficiency = bad})
                     .Validate()
                     .ok())
        << bad;
  }
}

TEST(LinkSpecTest, Validation) {
  EXPECT_FALSE((LinkSpec{.bandwidth_bps = 0.0}).Validate().ok());
  EXPECT_FALSE(
      (LinkSpec{.bandwidth_bps = 1.0, .latency_s = -1.0}).Validate().ok());
  EXPECT_TRUE((LinkSpec{.bandwidth_bps = 1e9}).Validate().ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE((LinkSpec{.bandwidth_bps = bad}).Validate().ok()) << bad;
    EXPECT_FALSE(
        (LinkSpec{.bandwidth_bps = 1e9, .latency_s = bad}).Validate().ok())
        << bad;
  }
}

TEST(ClusterSpecTest, SharedMemorySkipsLinkValidation) {
  ClusterSpec cluster{.node = presets::XeonE3_1240(),
                      .link = LinkSpec{},  // invalid link
                      .max_nodes = 4,
                      .shared_memory = true};
  EXPECT_TRUE(cluster.Validate().ok());
  cluster.shared_memory = false;
  EXPECT_FALSE(cluster.Validate().ok());
}

TEST(PresetsTest, XeonMatchesPaperSectionVA) {
  NodeSpec node = presets::XeonE3_1240();
  EXPECT_DOUBLE_EQ(node.peak_flops, 211.2e9);
  EXPECT_DOUBLE_EQ(node.efficiency, 0.8);
  // The double-precision variant is what the Fig. 2 model uses:
  // F = 0.8 * 105.6e9.
  NodeSpec dbl = presets::XeonE3_1240Double();
  EXPECT_DOUBLE_EQ(dbl.EffectiveFlops(), 0.8 * 105.6e9);
  EXPECT_DOUBLE_EQ(presets::SparkCluster().node.EffectiveFlops(),
                   dbl.EffectiveFlops());
}

TEST(PresetsTest, K40MatchesPaperSectionVA) {
  NodeSpec node = presets::NvidiaK40();
  EXPECT_DOUBLE_EQ(node.peak_flops, 4.28e12);
  EXPECT_DOUBLE_EQ(node.efficiency, 0.5);
  EXPECT_DOUBLE_EQ(node.EffectiveFlops(), 2.14e12);
}

TEST(PresetsTest, ClustersValidate) {
  EXPECT_TRUE(presets::SparkCluster().Validate().ok());
  EXPECT_TRUE(presets::GpuCluster().Validate().ok());
  EXPECT_TRUE(presets::SharedMemoryServer().Validate().ok());
}

TEST(PresetsTest, SparkClusterUsesGigabitEthernet) {
  EXPECT_DOUBLE_EQ(presets::SparkCluster().link.bandwidth_bps, 1e9);
}

TEST(PresetsTest, SharedMemoryServerDefaults80Workers) {
  ClusterSpec server = presets::SharedMemoryServer();
  EXPECT_EQ(server.max_nodes, 80);
  EXPECT_TRUE(server.shared_memory);
}

}  // namespace
}  // namespace dmlscale::core
