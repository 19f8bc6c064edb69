// Property tests over the communication-model registry: every registered
// entry — current and future — must construct from its documented example
// parameter bag, price n == 1 as exactly zero, stay finite and non-negative
// across node counts, and accept the shared network parameter keys
// (topology / queue / oversubscription / load) without special-casing.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/presets.h"
#include "api/registry.h"

namespace dmlscale::api {
namespace {

core::LinkSpec TestLink() { return presets::GigabitEthernet(); }

const std::vector<int>& PropertyNodes() {
  static const std::vector<int> nodes = {2, 3, 64, 1024};
  return nodes;
}

TEST(CommsPropertyTest, EveryEntryConstructsFromItsDocumentedExample) {
  for (const std::string& name : CommModels().Names()) {
    auto example = CommModels().Example(name);
    ASSERT_TRUE(example.ok()) << name;
    auto model = CommModels().Create(name, *example, TestLink());
    EXPECT_TRUE(model.ok()) << name << ": " << model.status();
  }
}

TEST(CommsPropertyTest, SecondsOnOneNodeIsExactlyZero) {
  for (const std::string& name : CommModels().Names()) {
    auto model = CommModels().Create(name, *CommModels().Example(name),
                                     TestLink());
    ASSERT_TRUE(model.ok()) << name;
    EXPECT_EQ((*model)->Seconds(1), 0.0) << name;
    EXPECT_TRUE((*model)->Traffic(1).rounds.empty()) << name;
  }
}

TEST(CommsPropertyTest, SecondsStaysFiniteAndNonNegative) {
  for (const std::string& name : CommModels().Names()) {
    auto model = CommModels().Create(name, *CommModels().Example(name),
                                     TestLink());
    ASSERT_TRUE(model.ok()) << name;
    for (int n : PropertyNodes()) {
      double seconds = (*model)->Seconds(n);
      EXPECT_TRUE(std::isfinite(seconds)) << name << " n=" << n;
      EXPECT_GE(seconds, 0.0) << name << " n=" << n;
    }
  }
}

TEST(CommsPropertyTest, EveryEntryAcceptsTheNetworkKeys) {
  for (const std::string& name : CommModels().Names()) {
    ModelParams params = *CommModels().Example(name);
    params.Set("topology", "fat-tree")
        .Set("oversubscription", 4.0)
        .Set("queue", "mm1")
        .Set("load", 0.25);
    auto model = CommModels().Create(name, params, TestLink());
    ASSERT_TRUE(model.ok()) << name << ": " << model.status();
    // Contended pricing must stay sane too (shared-memory stays ideal: it
    // validates-and-ignores the keys so sweeps can apply a topology axis
    // uniformly).
    for (int n : PropertyNodes()) {
      double seconds = (*model)->Seconds(n);
      EXPECT_TRUE(std::isfinite(seconds)) << name << " n=" << n;
      EXPECT_GE(seconds, 0.0) << name << " n=" << n;
    }
    if (name == "shared-memory") {
      EXPECT_EQ((*model)->label(), (*model)->name());
    } else {
      EXPECT_NE((*model)->label().find("@fat-tree"), std::string::npos)
          << name << " label=" << (*model)->label();
      EXPECT_NE((*model)->label().find("mm1"), std::string::npos) << name;
    }
  }
}

TEST(CommsPropertyTest, UnknownTopologyAndQueueAreActionableErrors) {
  ModelParams bad_topo = *CommModels().Example("tree");
  bad_topo.Set("topology", "hypercube");
  auto model = CommModels().Create("tree", bad_topo, TestLink());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  // The error enumerates the menu.
  EXPECT_NE(model.status().message().find("fat-tree"), std::string::npos);

  ModelParams bad_queue = *CommModels().Example("tree");
  bad_queue.Set("queue", "md1");
  model = CommModels().Create("tree", bad_queue, TestLink());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(model.status().message().find("mm1"), std::string::npos);
}

TEST(CommsPropertyTest, TopologyNumericsRequireTheirTopology) {
  // oversubscription belongs to fat-tree; an ideal-switch bag carrying it is
  // a configuration mistake, not silently-ignored noise.
  ModelParams params = *CommModels().Example("ring-allreduce");
  params.Set("oversubscription", 4.0);
  auto model = CommModels().Create("ring-allreduce", params, TestLink());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(model.status().message().find("oversubscription"),
            std::string::npos);
}

TEST(CommsPropertyTest, FatTreePodMustFitAnInt) {
  // pod is narrowed to int; inf and values past INT_MAX have no int to
  // become, so they are rejected before the cast, like NaN and fractions.
  for (double pod : {std::numeric_limits<double>::infinity(), 1e12,
                     std::nan(""), 4.5, 1.0}) {
    ModelParams params = *CommModels().Example("ring-allreduce");
    params.Set("topology", "fat-tree").Set("pod", pod);
    auto model = CommModels().Create("ring-allreduce", params, TestLink());
    ASSERT_FALSE(model.ok()) << "pod=" << pod;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(model.status().message().find("pod"), std::string::npos)
        << model.status();
  }
  ModelParams params = *CommModels().Example("ring-allreduce");
  params.Set("topology", "fat-tree").Set("pod", 8.0);
  EXPECT_TRUE(CommModels().Create("ring-allreduce", params, TestLink()).ok());
}

TEST(CommsPropertyTest, NetworkNumericsMustBeFinite) {
  // NaN fails every comparison, so a plain range check would hand it to the
  // topology and queue constructors; +inf oversubscription would price
  // every contended round at inf seconds.
  struct NetworkKey {
    const char* key;
    const char* selector;
    const char* variant;
    double accepted;
  };
  for (NetworkKey net :
       {NetworkKey{"oversubscription", "topology", "fat-tree", 2.0},
        NetworkKey{"backplane", "topology", "star", 0.5},
        NetworkKey{"load", "queue", "mm1", 0.5}}) {
    for (double value : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
      ModelParams params = *CommModels().Example("ring-allreduce");
      params.Set(net.selector, net.variant).Set(net.key, value);
      auto model = CommModels().Create("ring-allreduce", params, TestLink());
      ASSERT_FALSE(model.ok()) << net.key << "=" << value;
      EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(model.status().message().find(net.key), std::string::npos)
          << model.status();
    }
    ModelParams params = *CommModels().Example("ring-allreduce");
    params.Set(net.selector, net.variant).Set(net.key, net.accepted);
    EXPECT_TRUE(CommModels().Create("ring-allreduce", params, TestLink()).ok())
        << net.key;
  }
}

TEST(CommsPropertyTest, ComputeEntriesConstructFromTheirExamples) {
  core::NodeSpec node = presets::GenericGigaflopNode();
  for (const std::string& name : ComputeModels().Names()) {
    auto example = ComputeModels().Example(name);
    ASSERT_TRUE(example.ok()) << name;
    auto model = ComputeModels().Create(name, *example, node);
    EXPECT_TRUE(model.ok()) << name << ": " << model.status();
  }
}

}  // namespace
}  // namespace dmlscale::api
