#include "api/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "api/presets.h"

namespace dmlscale::api {
namespace {

core::NodeSpec TestNode() { return presets::GenericGigaflopNode(); }
core::LinkSpec TestLink() { return presets::GigabitEthernet(); }

TEST(RegistryTest, LookupHitConstructsModel) {
  auto model = ComputeModels().Create(
      "perfectly-parallel", ModelParams{{"total_flops", 10e9}}, TestNode());
  ASSERT_TRUE(model.ok());
  // 10 GFLOP on a 1 GFLOP/s node: 10 s on one node, 2.5 s on four.
  EXPECT_DOUBLE_EQ((*model)->Seconds(1), 10.0);
  EXPECT_DOUBLE_EQ((*model)->Seconds(4), 2.5);
}

TEST(RegistryTest, LookupMissListsRegisteredNames) {
  auto model = CommModels().Create("treee", ModelParams{{"bits", 1e6}},
                                   TestLink());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
  // The error enumerates the menu, so the typo is self-correcting.
  EXPECT_NE(model.status().message().find("tree"), std::string::npos);
  EXPECT_NE(model.status().message().find("ring-allreduce"), std::string::npos);
}

TEST(RegistryTest, DuplicateRegistrationFails) {
  ComputeModelRegistry registry;
  auto factory = [](const ModelParams&, const core::NodeSpec&)
      -> Result<std::unique_ptr<core::ComputationModel>> {
    return Status::Unimplemented("test factory");
  };
  EXPECT_TRUE(registry.Register("dup", "", factory).ok());
  Status again = registry.Register("dup", "", factory);
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(again.message().find("dup"), std::string::npos);
}

TEST(RegistryTest, EmptyNameRejected) {
  CommModelRegistry registry;
  Status status = registry.Register(
      "", "", [](const ModelParams&, const core::LinkSpec&)
          -> Result<std::unique_ptr<core::CommunicationModel>> {
        return Status::Unimplemented("test factory");
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, EnumerationIsSortedAndComplete) {
  std::vector<std::string> names = CommModels().Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"shared-memory", "linear", "fixed-volume", "tree", "torrent-broadcast",
        "two-wave", "ring-allreduce", "recursive-doubling", "shuffle",
        "spark-gd"}) {
    EXPECT_TRUE(CommModels().Contains(expected)) << expected;
  }
  EXPECT_TRUE(ComputeModels().Contains("perfectly-parallel"));
  EXPECT_TRUE(ComputeModels().Contains("amdahl"));
  // Help() carries one line per model for --help output.
  EXPECT_NE(CommModels().Help().find("spark-gd"), std::string::npos);
}

TEST(RegistryTest, MissingRequiredParameterFails) {
  auto model =
      CommModels().Create("linear", ModelParams{}, TestLink());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(model.status().message().find("bits"), std::string::npos);
}

TEST(RegistryTest, UnknownParameterFails) {
  auto model = CommModels().Create(
      "linear", ModelParams{{"bits", 1e6}, {"round", 2.0}}, TestLink());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(model.status().message().find("round"), std::string::npos);
}

TEST(RegistryTest, InvalidParameterValueFails) {
  auto compute = ComputeModels().Create(
      "amdahl", ModelParams{{"total_flops", 1e9}, {"serial_fraction", 1.5}},
      TestNode());
  ASSERT_FALSE(compute.ok());
  EXPECT_EQ(compute.status().code(), StatusCode::kInvalidArgument);

  // NaN passes every `<=` range check and inf prices an infinite time, so
  // each factory must reject both itself, naming the key.
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::nan(""), inf, -inf}) {
    struct ComputeCase {
      const char* model;
      ModelParams params;
      const char* key;
    };
    const ComputeCase compute_cases[] = {
        {"perfectly-parallel", {{"total_flops", bad}}, "total_flops"},
        {"amdahl",
         {{"total_flops", bad}, {"serial_fraction", 0.1}},
         "total_flops"},
        {"amdahl",
         {{"total_flops", 1e9}, {"serial_fraction", bad}},
         "serial_fraction"},
    };
    for (const ComputeCase& c : compute_cases) {
      auto model = ComputeModels().Create(c.model, c.params, TestNode());
      ASSERT_FALSE(model.ok()) << c.model << " " << c.key << "=" << bad;
      EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(model.status().message().find(c.key), std::string::npos)
          << model.status();
    }
    // Every numeric key of every comm example: `bits` everywhere, plus the
    // tree's `rounds`.
    for (const std::string& name : CommModels().Names()) {
      const ModelParams example = *CommModels().Example(name);
      for (const auto& [key, value] : example.values()) {
        ModelParams params = example;
        params.Set(key, bad);
        auto model = CommModels().Create(name, params, TestLink());
        ASSERT_FALSE(model.ok()) << name << " " << key << "=" << bad;
        EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(model.status().message().find(key), std::string::npos)
            << model.status();
      }
    }
  }
}

TEST(RegistryTest, SparkGdCompositeMatchesClosedForm) {
  const double bits = 64.0 * 12e6;
  auto model =
      CommModels().Create("spark-gd", ModelParams{{"bits", bits}}, TestLink());
  ASSERT_TRUE(model.ok());
  // (bits/B) log2(9) + 2 (bits/B) ceil(sqrt(9)): the Fig. 2 protocol.
  double unit = bits / TestLink().bandwidth_bps;
  EXPECT_NEAR((*model)->Seconds(9),
              unit * std::log2(9.0) + 2.0 * unit * 3.0, 1e-9);
  EXPECT_DOUBLE_EQ((*model)->Seconds(1), 0.0);
}

}  // namespace
}  // namespace dmlscale::api
