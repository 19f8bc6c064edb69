#include "api/faults.h"

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "api/presets.h"
#include "api/scenario.h"
#include "core/faults.h"

namespace dmlscale::api {
namespace {

TEST(ResolveFaultSpecTest, EmptyBagIsTheDisabledSpec) {
  auto spec = ResolveFaultSpec({});
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->Enabled());
}

TEST(ResolveFaultSpecTest, ResolvesEveryKey) {
  ModelParams params{{"mtbf", 30000.0},
                     {"mttr", 60.0},
                     {"straggler", 0.3},
                     {"checkpoint_interval", 500.0},
                     {"checkpoint_cost", 20.0}};
  auto spec = ResolveFaultSpec(params);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->mtbf_seconds, 30000.0);
  EXPECT_EQ(spec->mttr_seconds, 60.0);
  EXPECT_EQ(spec->straggler_sigma, 0.3);
  EXPECT_EQ(spec->checkpoint_interval_s, 500.0);
  EXPECT_EQ(spec->checkpoint_cost_s, 20.0);
  EXPECT_EQ(spec->recovery, core::RecoveryStrategy::kCheckpointRestart);
  EXPECT_TRUE(spec->Enabled());
}

TEST(ResolveFaultSpecTest, TypoedKeyFailsLoudly) {
  auto spec = ResolveFaultSpec(ModelParams{{"mtfb", 1000.0}});
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("mtfb"), std::string::npos);
}

TEST(ResolveFaultSpecTest, UnknownSelectionsListTheMenu) {
  ModelParams recovery;
  recovery.Set("recovery", "reboot");
  auto bad_recovery = ResolveFaultSpec(recovery);
  ASSERT_FALSE(bad_recovery.ok());
  EXPECT_NE(bad_recovery.status().message().find(
                "checkpoint-restart, replica, speculative"),
            std::string::npos);
}

TEST(ResolveFaultSpecTest, OwnedKeysRequireTheirSelection) {
  // takeover without recovery='replica'.
  auto takeover = ResolveFaultSpec(ModelParams{{"takeover", 3.0}});
  ASSERT_FALSE(takeover.ok());
  EXPECT_NE(takeover.status().message().find("recovery='replica'"),
            std::string::npos);

  // spec_threshold without recovery='speculative'.
  auto threshold = ResolveFaultSpec(ModelParams{{"spec_threshold", 2.0}});
  ASSERT_FALSE(threshold.ok());
  EXPECT_NE(threshold.status().message().find("recovery='speculative'"),
            std::string::npos);
}

TEST(ResolveFaultSpecTest, CheckpointKeysUnderReplicaAreRejected) {
  ModelParams params{{"mtbf", 1000.0},
                     {"mttr", 10.0},
                     {"takeover", 3.0},
                     {"checkpoint_cost", 5.0}};
  params.Set("recovery", "replica");
  auto spec = ResolveFaultSpec(params);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("meaningless under"),
            std::string::npos);
}

TEST(ResolveFaultSpecTest, CoreValidationPropagates) {
  // mtbf without mttr: core::FaultSpec::Validate's error comes through.
  auto spec = ResolveFaultSpec(ModelParams{{"mtbf", 1000.0}});
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("mttr"), std::string::npos);
}

// Link degradation and the uptime distribution moved no reported number (no
// closed form reads link episodes, and Daly's completion form assumes
// exponential crashes), so their keys are unknown, like any typo.
TEST(ResolveFaultSpecTest, RetiredKeysAreRejected) {
  const ModelParams base{{"mtbf", 3000.0}, {"mttr", 60.0}};
  std::vector<std::pair<std::string, ModelParams>> cases;
  for (const char* key : {"link_mtbf", "link_degrade_duration",
                          "link_degrade_factor", "weibull_shape"}) {
    cases.emplace_back(key, ModelParams(base).Set(key, 2.0));
  }
  cases.emplace_back("mtbf_dist",
                     ModelParams(base).Set("mtbf_dist", "exponential"));
  for (const auto& [key, bag] : cases) {
    auto spec = ResolveFaultSpec(bag);
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(spec.status().message().find("unknown parameter '" + key + "'"),
              std::string::npos)
        << spec.status().message();
  }
}

Scenario::Builder Fig1Builder() {
  Scenario::Builder builder;
  builder.Name("fig1")
      .Hardware(presets::Fig1Cluster(30))
      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
      .Comm("linear", {{"bits", 1e9}});
  return builder;
}

ModelParams CrashParams() {
  ModelParams params{{"mtbf", 30000.0}, {"mttr", 60.0},
                     {"checkpoint_cost", 20.0}};
  return params;
}

TEST(ScenarioFaultsTest, BuilderAttachesTheFailureModel) {
  auto fault_free = Fig1Builder().Build();
  ASSERT_TRUE(fault_free.ok());
  EXPECT_FALSE(fault_free->fault_aware());

  auto faulty = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(faulty.ok());
  EXPECT_TRUE(faulty->fault_aware());
  EXPECT_EQ(faulty->faults().mtbf_seconds, 30000.0);
  EXPECT_TRUE(faulty->fault_params().Has("mtbf"));

  // A bad bag fails at Build, not at analysis time.
  auto bad = Fig1Builder().Faults(ModelParams{{"mtbf", 1000.0}}).Build();
  EXPECT_FALSE(bad.ok());
}

TEST(ScenarioFaultsTest, FaultKeysChangeTheCacheKey) {
  auto fault_free = Fig1Builder().Build();
  auto faulty = Fig1Builder().Faults(CrashParams()).Build();
  ModelParams other = CrashParams();
  other.Set("mtbf", 15000.0);
  auto faultier = Fig1Builder().Faults(other).Build();
  ASSERT_TRUE(fault_free.ok());
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(faultier.ok());
  // Same name, different failure models: the memo key must split them.
  EXPECT_NE(fault_free->CacheKey(), faulty->CacheKey());
  EXPECT_NE(faulty->CacheKey(), faultier->CacheKey());
}

TEST(AnalysisFaultsTest, FaultAwareReportCarriesTheFailureColumns) {
  auto scenario = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->availability.has_value());
  EXPECT_NEAR(*report->availability, 30000.0 / 30060.0, 1e-12);
  ASSERT_TRUE(report->expected_slowdown.has_value());
  EXPECT_GT(*report->expected_slowdown, 1.0);
  ASSERT_TRUE(report->fault_optimal_nodes.has_value());
  EXPECT_GE(*report->fault_optimal_nodes, 1);
  // Crashes enabled and checkpoints priced: the Young/Daly answer appears.
  ASSERT_TRUE(report->optimal_checkpoint_interval_s.has_value());
  EXPECT_GT(*report->optimal_checkpoint_interval_s, 0.0);
}

TEST(AnalysisFaultsTest, FaultFreeReportStaysClean) {
  auto scenario = Fig1Builder().Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->availability.has_value());
  EXPECT_FALSE(report->expected_slowdown.has_value());
  EXPECT_FALSE(report->fault_optimal_nodes.has_value());
  EXPECT_FALSE(report->optimal_checkpoint_interval_s.has_value());
  EXPECT_FALSE(report->fault_target_answer.has_value());
}

TEST(AnalysisFaultsTest, FaultTargetQuestionIsAnswered) {
  auto scenario = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(scenario.ok());
  AnalysisOptions options;
  options.fault_target_seconds = 60.0;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->fault_target_answer.has_value());
  ASSERT_TRUE(report->fault_target_answer->achievable);

  AnalysisOptions impossible;
  impossible.fault_target_seconds = 1e-6;
  auto hopeless = Analysis::Run(*scenario, impossible);
  ASSERT_TRUE(hopeless.ok());
  ASSERT_TRUE(hopeless->fault_target_answer.has_value());
  EXPECT_FALSE(hopeless->fault_target_answer->achievable);
  EXPECT_FALSE(hopeless->fault_target_answer->note.empty());
}

TEST(AnalysisFaultsTest, PrintReportAddsFailureLinesOnlyWhenFaultAware) {
  auto fault_free = Fig1Builder().Build();
  auto faulty = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(fault_free.ok());
  ASSERT_TRUE(faulty.ok());

  auto clean = Analysis::Run(*fault_free);
  auto report = Analysis::Run(*faulty);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(report.ok());

  std::ostringstream clean_os;
  PrintReport(*clean, clean_os);
  EXPECT_EQ(clean_os.str().find("Failure model"), std::string::npos);

  std::ostringstream os;
  PrintReport(*report, os);
  EXPECT_NE(os.str().find("Failure model: node availability"),
            std::string::npos);
  EXPECT_NE(os.str().find("Young/Daly checkpoint interval"),
            std::string::npos);

  // The fault-free sections of both prints are identical: fault-awareness
  // only APPENDS lines, it never perturbs the existing report format.
  std::string prefix = os.str().substr(0, os.str().find("Failure model"));
  EXPECT_EQ(clean_os.str().substr(0, prefix.size()), prefix);
}

// The keys ResolveFaultSpec accepts, read off its unknown-key error.
std::vector<std::string> AcceptedFaultKeys() {
  auto unknown = ResolveFaultSpec(ModelParams{{"no_such_key", 1.0}});
  const std::string message = unknown.status().message();
  const std::string marker = "(accepted: ";
  const size_t open = message.find(marker);
  const size_t close = message.find(')', open);
  if (open == std::string::npos || close == std::string::npos) return {};
  std::vector<std::string> keys;
  std::string menu = message.substr(open + marker.size(),
                                    close - open - marker.size());
  for (size_t start = 0; start <= menu.size();) {
    size_t end = menu.find(", ", start);
    if (end == std::string::npos) end = menu.size();
    keys.push_back(menu.substr(start, end - start));
    start = end + 2;
  }
  return keys;
}

// The Fig. 1 report under `faults`, with the fault-target question asked;
// empty (and a test failure) when the bag does not build or run.
std::string FaultReport(const ModelParams& faults) {
  auto scenario = Fig1Builder().Faults(faults).Build();
  if (!scenario.ok()) {
    ADD_FAILURE() << "Build: " << scenario.status();
    return "";
  }
  AnalysisOptions options;
  options.fault_target_seconds = 60.0;
  auto report = Analysis::Run(*scenario, options);
  if (!report.ok()) {
    ADD_FAILURE() << "Run: " << report.status();
    return "";
  }
  std::ostringstream os;
  PrintReport(*report, os);
  return os.str();
}

// Every accepted fault key must move a number the report prints: an input
// that changes nothing misleads whoever sets it. Each key gets a base bag
// and the same bag with that key changed. A key added to the front door
// without a variant here fails until it gets one that moves the report.
TEST(AnalysisFaultsTest, EveryFaultKeyMovesTheReport) {
  const ModelParams base{{"mtbf", 3000.0},
                         {"mttr", 60.0},
                         {"checkpoint_cost", 20.0},
                         {"straggler", 0.5}};
  const ModelParams speculative = ModelParams(base).Set("recovery",
                                                        "speculative");
  const ModelParams replica = ModelParams{{"mtbf", 3000.0},
                                          {"mttr", 60.0},
                                          {"straggler", 0.5},
                                          {"takeover", 3.0}}
                                  .Set("recovery", "replica");
  auto with = [](ModelParams bag, const std::string& key, double value) {
    return bag.Set(key, value);
  };
  // checkpoint_interval must be shorter than the fault-free time, or the
  // job is one segment either way.
  const std::map<std::string, std::pair<ModelParams, ModelParams>> variants =
      {{"mtbf", {base, with(base, "mtbf", 6000.0)}},
       {"mttr", {base, with(base, "mttr", 120.0)}},
       {"straggler", {base, with(base, "straggler", 0.25)}},
       {"checkpoint_interval", {base, with(base, "checkpoint_interval", 2.0)}},
       {"checkpoint_cost", {base, with(base, "checkpoint_cost", 40.0)}},
       {"takeover", {replica, with(replica, "takeover", 6.0)}},
       {"spec_threshold",
        {speculative, with(speculative, "spec_threshold", 1.5)}},
       {"recovery", {base, speculative}}};

  const std::vector<std::string> keys = AcceptedFaultKeys();
  ASSERT_FALSE(keys.empty());
  for (const std::string& key : keys) {
    auto variant = variants.find(key);
    if (variant == variants.end()) {
      ADD_FAILURE() << "fault key '" << key
                    << "' has no variant here; add one that moves the report";
      continue;
    }
    SCOPED_TRACE(key);
    EXPECT_NE(FaultReport(variant->second.first),
              FaultReport(variant->second.second))
        << "fault key '" << key << "' does not move the report";
  }
}

}  // namespace
}  // namespace dmlscale::api
