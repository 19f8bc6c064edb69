#include "api/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/presets.h"
#include "api/scenario.h"
#include "common/thread_pool.h"

namespace dmlscale::api {
namespace {

/// Fig. 1's scenario (Section III): 196 GFLOP perfectly parallel on
/// 1 GFLOP/s nodes, linear communication of 1 Gbit over GigE, so
/// t(n) = 196/n + n and the optimum is sqrt(196) = 14 nodes.
Result<Scenario> Fig1Scenario() {
  return Scenario::Builder()
      .Name("fig1")
      .Hardware(presets::Fig1Cluster(30))
      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
      .Comm("linear", {{"bits", 1e9}})
      .Build();
}

TEST(AnalysisTest, ReproducesFig1OptimalNodes) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report->optimal_nodes, 14);
  EXPECT_TRUE(report->scalable);
  // t(1) = 196 (the n=1 communication term is zero — nothing to exchange).
  EXPECT_DOUBLE_EQ(report->reference_seconds, 196.0);
  // s(14) = 196 / (196/14 + 14) = 196/28 = 7.
  EXPECT_NEAR(report->peak_speedup, 7.0, 1e-12);
  ASSERT_EQ(report->curve.nodes.size(), 30u);
  EXPECT_FALSE(report->speedup_answer.has_value());
  EXPECT_FALSE(report->simulated.has_value());
}

TEST(AnalysisTest, PlannerAnswersBothQuestions) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.target_speedup = 3.0;
  options.workload_growth = 2.0;
  options.current_nodes = 1;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());

  // Q1: t(1)/3 = 65.67 s; t(3) = 196/3 + 3 = 68.3, t(4) = 53: 4 machines.
  ASSERT_TRUE(report->speedup_answer.has_value());
  EXPECT_TRUE(report->speedup_answer->achievable);
  EXPECT_EQ(report->speedup_answer->nodes, 4);

  // Q2: smallest n with 2*196/n + n <= 197: n = 2 gives 198 > 197,
  // n = 3 gives 133.67: 3 machines.
  ASSERT_TRUE(report->growth_answer.has_value());
  EXPECT_TRUE(report->growth_answer->achievable);
  EXPECT_EQ(report->growth_answer->nodes, 3);
}

TEST(AnalysisTest, UnreachableTargetReportsNotAchievable) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.target_speedup = 100.0;  // peak speedup is ~7: impossible
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->speedup_answer.has_value());
  EXPECT_FALSE(report->speedup_answer->achievable);
  EXPECT_FALSE(report->speedup_answer->note.empty());
}

TEST(AnalysisTest, SimulationWithoutOverheadMatchesAnalyticCurve) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.overhead = sim::OverheadModel::None();
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());

  ASSERT_TRUE(report->simulated.has_value());
  ASSERT_TRUE(report->model_vs_sim_mape.has_value());
  // The event-driven superstep with no overhead IS the closed-form model.
  EXPECT_NEAR(*report->model_vs_sim_mape, 0.0, 1e-9);
  EXPECT_EQ(report->simulated->OptimalNodes(), report->optimal_nodes);
}

TEST(AnalysisTest, SimulatedOverheadShiftsOptimumDown) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  // Heavy per-worker scheduling cost: large clusters pay for dispatch, so
  // the measured optimum lands below the analytic one (the Fig. 2 effect).
  options.overhead.sched_per_worker_s = 2.0;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->simulated.has_value());
  EXPECT_LT(report->simulated->OptimalNodes(), report->optimal_nodes);
  EXPECT_GT(*report->model_vs_sim_mape, 1.0);
}

TEST(AnalysisTest, RespectsExplicitMaxNodesAndReference) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.max_nodes = 10;
  options.reference_n = 2;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->curve.nodes.size(), 10u);
  EXPECT_EQ(report->curve.reference_n, 2);
  // Communication-bound tail is cut off at 10, so the argmax is 10... no:
  // t(n) = 196/n + n is minimized at 10 within [1, 10] (still decreasing).
  EXPECT_EQ(report->optimal_nodes, 10);
  EXPECT_DOUBLE_EQ(report->reference_seconds, scenario->Seconds(2));
}

TEST(AnalysisTest, InvalidOptionsFail) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.reference_n = 99;  // > max_nodes
  EXPECT_FALSE(Analysis::Run(*scenario, options).ok());

  AnalysisOptions bad_current;
  bad_current.target_speedup = 2.0;
  bad_current.current_nodes = 0;
  EXPECT_FALSE(Analysis::Run(*scenario, bad_current).ok());

  // The curve and the time table are sized by max_nodes, which is bounded.
  AnalysisOptions huge;
  huge.max_nodes = (1 << 20) + 1;
  auto report = Analysis::Run(*scenario, huge);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("max_nodes"), std::string::npos)
      << report.status().message();
}

TEST(AnalysisTest, ServingSimRequestTotalMustFitInt64) {
  // serving_sim_requests + serving_sim_warmup is the serving DES's request
  // total; one past INT64_MAX must come back as a Status, not overflow.
  auto scenario = Scenario::Builder()
                      .Name("fig1-serving")
                      .Hardware(presets::Fig1Cluster(30))
                      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
                      .Comm("linear", {{"bits", 1e9}})
                      .Serving({{"qps", 2000.0},
                                {"service_per_item", 0.001},
                                {"replicas", 4.0}})
                      .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  AnalysisOptions options;
  options.simulate = true;
  options.sim_supersteps = 1;
  options.serving_sim_requests = std::numeric_limits<int64_t>::max();
  options.serving_sim_warmup = 1;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("warmup_requests"),
            std::string::npos)
      << report.status().message();
}

TEST(AnalysisTest, NonFinitePlannerTargetsAreRejected) {
  // NaN fails the `> 0` test that selects a question, so without the check
  // it would be silently skipped and its answer left empty.
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  struct Target {
    const char* name;
    double AnalysisOptions::*field;
  };
  for (const Target& target :
       {Target{"target_speedup", &AnalysisOptions::target_speedup},
        Target{"workload_growth", &AnalysisOptions::workload_growth},
        Target{"fault_target_seconds",
               &AnalysisOptions::fault_target_seconds}}) {
    for (double value : {kNan, kInf, -kInf}) {
      AnalysisOptions options;
      options.*target.field = value;
      auto report = Analysis::Run(*scenario, options);
      ASSERT_FALSE(report.ok()) << target.name << "=" << value;
      EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(report.status().message().find(target.name),
                std::string::npos)
          << report.status().message();
    }
  }
}

TEST(AnalysisTest, InvalidSimulationOverheadIsAnError) {
  // Overheads that would schedule events before t = 0 or poison the
  // barrier with NaN must come back as a Status naming the field, not an
  // abort or a NaN MAPE.
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  AnalysisOptions options;
  options.simulate = true;
  options.sim_supersteps = 2;
  options.overhead.sched_fixed_s = -1e6;
  auto negative = Analysis::Run(*scenario, options);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(negative.status().message().find("sched_fixed_s"),
            std::string::npos);

  options.overhead = sim::OverheadModel{};
  options.overhead.serialize_s_per_bit = std::nan("");
  auto nan = Analysis::Run(*scenario, options);
  ASSERT_FALSE(nan.ok());
  EXPECT_NE(nan.status().message().find("serialize_s_per_bit"),
            std::string::npos);
}

TEST(AnalysisTest, SimulatedPointsAreOrderIndependent) {
  // Regression for the single-Pcg32-threaded-through-the-loop bug: the
  // simulated sample at n must not depend on which other node counts were
  // evaluated before it. Extending max_nodes (more points after AND the
  // reference drawn at a different loop position) must leave the shared
  // points bit-identical.
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.overhead.straggler_sigma = 0.2;  // make the draws matter
  options.max_nodes = 8;
  auto small = Analysis::Run(*scenario, options);
  ASSERT_TRUE(small.ok());
  options.max_nodes = 24;
  auto large = Analysis::Run(*scenario, options);
  ASSERT_TRUE(large.ok());

  for (int n = 1; n <= 8; ++n) {
    EXPECT_EQ(small->simulated->At(n).value(), large->simulated->At(n).value())
        << "n=" << n;
  }
}

TEST(AnalysisTest, SimulationIsByteIdenticalAcrossThreadCounts) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.target_speedup = 3.0;
  options.overhead = sim::OverheadModel::SparkLike();
  options.threads = 1;
  auto serial = Analysis::Run(*scenario, options);
  ASSERT_TRUE(serial.ok());
  options.threads = 8;
  auto parallel = Analysis::Run(*scenario, options);
  ASSERT_TRUE(parallel.ok());

  // Exact equality, not near: per-n seed derivation means the schedule
  // cannot leak into any sample.
  EXPECT_EQ(serial->simulated->speedup, parallel->simulated->speedup);
  EXPECT_EQ(*serial->model_vs_sim_mape, *parallel->model_vs_sim_mape);

  std::ostringstream a, b;
  PrintReport(*serial, a);
  PrintReport(*parallel, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(AnalysisTest, SimSeedSelectsTheDrawSequence) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.overhead.straggler_sigma = 0.2;
  auto a = Analysis::Run(*scenario, options);
  ASSERT_TRUE(a.ok());
  options.sim_seed = 43;
  auto b = Analysis::Run(*scenario, options);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->simulated->speedup, b->simulated->speedup);
}

TEST(AnalysisTest, PricesEachNodeCountOnce) {
  // The curve, both planner questions, the fault model and the simulator
  // all read one table filled at the top of the run, so the scenario's
  // compute term is evaluated exactly once per node count.
  constexpr int kMaxNodes = 24;
  std::vector<int> calls(kMaxNodes + 1, 0);
  auto scenario =
      Scenario::Builder()
          .Name("counted")
          .Hardware(presets::Fig1Cluster(kMaxNodes))
          .Compute(
              [&calls](int n) {
                ++calls.at(static_cast<size_t>(n));
                return 196.0e9 / n;
              },
              "counted-flops")
          .Comm("linear", {{"bits", 1e9}})
          .Faults({{"mtbf", 1e5}, {"mttr", 60.0}, {"checkpoint_cost", 20.0}})
          .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  std::fill(calls.begin(), calls.end(), 0);

  AnalysisOptions options;
  options.simulate = true;
  options.target_speedup = 3.0;
  options.workload_growth = 2.0;
  options.fault_target_seconds = 100.0;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->simulated.has_value());
  ASSERT_TRUE(report->speedup_answer.has_value());
  ASSERT_TRUE(report->growth_answer.has_value());
  ASSERT_TRUE(report->fault_optimal_nodes.has_value());
  ASSERT_TRUE(report->fault_target_answer.has_value());

  EXPECT_EQ(calls[0], 0);
  for (int n = 1; n <= kMaxNodes; ++n) {
    EXPECT_EQ(calls[static_cast<size_t>(n)], 1) << "n=" << n;
  }
}

TEST(AnalysisTest, SharedEvalCacheDoesNotChangeResults) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.target_speedup = 3.0;
  options.workload_growth = 2.0;
  auto uncached = Analysis::Run(*scenario, options);
  ASSERT_TRUE(uncached.ok());

  // One lookup per term and node count: the cold run misses every one...
  MemoCache cache;
  options.eval_cache = &cache;
  const uint64_t lookups =
      2u * static_cast<uint64_t>(scenario->cluster().max_nodes);
  auto cached = Analysis::Run(*scenario, options);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cache.misses(), lookups);
  EXPECT_EQ(cache.hits(), 0u);
  // ...without perturbing a single value.
  EXPECT_EQ(uncached->curve.speedup, cached->curve.speedup);
  EXPECT_EQ(uncached->simulated->speedup, cached->simulated->speedup);
  EXPECT_EQ(uncached->speedup_answer->nodes, cached->speedup_answer->nodes);
  EXPECT_EQ(uncached->growth_answer->nodes, cached->growth_answer->nodes);

  // A second run against the warm cache hits every lookup and computes
  // nothing new.
  auto warm = Analysis::Run(*scenario, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.hits(), lookups);
  EXPECT_EQ(cache.misses(), lookups);
}

TEST(AnalysisTest, EvalCacheRequiresANamedScenario) {
  // Cache keys embed the scenario name; an empty name would collide with
  // every other unnamed scenario sharing the cache.
  auto scenario = Scenario::Builder()
                      .Name("")
                      .Hardware(presets::Fig1Cluster(10))
                      .Compute("perfectly-parallel", {{"total_flops", 1e9}})
                      .Comm("linear", {{"bits", 1e9}})
                      .Build();
  ASSERT_TRUE(scenario.ok());
  MemoCache cache;
  AnalysisOptions options;
  options.eval_cache = &cache;
  EXPECT_EQ(Analysis::Run(*scenario, options).status().code(),
            StatusCode::kInvalidArgument);
  options.eval_cache = nullptr;
  EXPECT_TRUE(Analysis::Run(*scenario, options).ok());
}

TEST(AnalysisTest, EvalCacheRejectsCallableCompute) {
  // CacheKey() digests a callable compute model's label, not its function:
  // two scenarios with one name and label but different work would share
  // cached times.
  auto build = [](double flops) {
    return Scenario::Builder()
        .Name("callable")
        .Hardware(presets::Fig1Cluster(16))
        .Compute([flops](int n) { return flops / n; })
        .Comm("linear", {{"bits", 1e9}})
        .Build();
  };
  auto small = build(1e9);
  auto large = build(4e9);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  MemoCache cache;
  AnalysisOptions options;
  options.eval_cache = &cache;
  EXPECT_EQ(Analysis::Run(*small, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Analysis::Run(*large, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);

  // Without the cache each prices its own work: t(1) = flops / 1e9.
  options.eval_cache = nullptr;
  auto small_report = Analysis::Run(*small, options);
  auto large_report = Analysis::Run(*large, options);
  ASSERT_TRUE(small_report.ok());
  ASSERT_TRUE(large_report.ok());
  EXPECT_DOUBLE_EQ(small_report->reference_seconds, 1.0);
  EXPECT_DOUBLE_EQ(large_report->reference_seconds, 4.0);
}

TEST(AnalysisTest, CallableShareMustPriceAFiniteNonNegativeTime) {
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::function<double(int)> share;
    std::string where;  // the term, n and value the error must name
  };
  const Case cases[] = {
      {[](int n) { return -1e9 / n; }, "compute term at n=1 is -1 s"},
      {[](int) { return std::nan(""); }, "compute term at n=1 is nan s"},
      {[inf](int) { return inf; }, "compute term at n=1 is inf s"},
      {[inf](int n) { return n == 3 ? inf : 1e9 / n; },
       "compute term at n=3 is inf s"},
  };
  for (const Case& c : cases) {
    auto scenario = Scenario::Builder()
                        .Name("callable")
                        .Hardware(presets::Fig1Cluster(8))
                        .Compute(c.share)
                        .Comm("linear", {{"bits", 1e9}})
                        .Build();
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    auto report = Analysis::Run(*scenario);
    ASSERT_FALSE(report.ok()) << c.where;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    const std::string message = report.status().message();
    EXPECT_NE(message.find("scenario 'callable'"), std::string::npos)
        << message;
    EXPECT_NE(message.find(c.where), std::string::npos) << message;
  }
}

TEST(AnalysisTest, RejectsBadThreadCount) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  for (int threads : {0, kMaxThreads + 1}) {
    AnalysisOptions options;
    options.threads = threads;
    auto report = Analysis::Run(*scenario, options);
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << threads;
    EXPECT_NE(report.status().message().find("threads"), std::string::npos);
  }
}

TEST(AnalysisTest, PrintReportWritesNaForMissingSimulatedSamples) {
  // A hand-assembled report whose simulated series misses n=2 (e.g. a
  // measured-data import): the cell must read "n/a", not "-1.0000".
  AnalysisReport report;
  report.scenario_name = "partial";
  report.curve.nodes = {1, 2};
  report.curve.speedup = {1.0, 1.8};
  report.optimal_nodes = 2;
  report.first_local_peak = 2;
  report.peak_speedup = 1.8;
  core::SpeedupCurve simulated;
  simulated.nodes = {1};
  simulated.speedup = {1.0};
  report.simulated = simulated;

  std::ostringstream os;
  PrintReport(report, os);
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
  EXPECT_EQ(os.str().find("-1.0000"), std::string::npos);
}

TEST(AnalysisTest, PrintReportRendersTableAndAnswers) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  AnalysisOptions options;
  options.target_speedup = 3.0;
  options.simulate = true;
  options.overhead = sim::OverheadModel::None();
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());

  std::ostringstream os;
  PrintReport(*report, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("fig1"), std::string::npos);
  EXPECT_NE(out.find("simulated_speedup"), std::string::npos);
  EXPECT_NE(out.find("optimal nodes = 14"), std::string::npos);
  EXPECT_NE(out.find("Q1"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);  // the table rule
}

}  // namespace
}  // namespace dmlscale::api
