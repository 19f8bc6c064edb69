#include "sweep/runner.h"

#include <gtest/gtest.h>

#include <string>

#include "api/presets.h"
#include "common/thread_pool.h"
#include "sweep/grid.h"
#include "sweep/report.h"

namespace dmlscale::sweep {
namespace {

ScenarioAxisPoint Fig1Point(const std::string& label, double total_flops) {
  return ScenarioAxisPoint{.label = label,
                           .compute_model = "perfectly-parallel",
                           .compute_params = {{"total_flops", total_flops}},
                           .comm_model = "linear",
                           .comm_params = {{"bits", 1e9}},
                           .supersteps = 1};
}

/// 2 scenarios x 2 hardware x 3 options (analytic, planner, simulate).
SweepGrid SmallGrid() {
  SweepGrid grid;
  grid.AddScenario(Fig1Point("fig1", 196.0e9));
  grid.AddScenario(Fig1Point("fig1-4x", 4 * 196.0e9));
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(30)});
  grid.AddHardware({.label = "gflop-gige-16",
                    .cluster = api::presets::Fig1Cluster(16)});
  grid.AddOptions({.label = "analytic", .options = {}});
  api::AnalysisOptions planner;
  planner.target_speedup = 2.0;
  planner.current_nodes = 2;
  grid.AddOptions({.label = "planner", .options = planner});
  api::AnalysisOptions sim;
  sim.simulate = true;
  sim.sim_supersteps = 2;
  sim.overhead.straggler_sigma = 0.2;  // draws must actually matter
  grid.AddOptions({.label = "sim", .options = sim});
  return grid;
}

TEST(SweepRunnerTest, RunsEveryCellInGridOrder) {
  auto report = SweepRunner().Run(SmallGrid());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cells.size(), 12u);
  EXPECT_EQ(report->num_ok(), 12u);
  EXPECT_EQ(report->num_failed(), 0u);
  for (size_t i = 0; i < report->cells.size(); ++i) {
    EXPECT_EQ(report->cells[i].index, i);
  }
  // Fig. 1's optimum is 14 nodes on the 30-node cluster.
  EXPECT_EQ(report->cells[0].scenario_label, "fig1");
  EXPECT_EQ(report->cells[0].hardware_label, "gflop-gige");
  EXPECT_EQ(report->cells[0].report.optimal_nodes, 14);
  // Quadrupled computation on the 16-node cluster saturates at its edge.
  EXPECT_EQ(report->cells[9].scenario_label, "fig1-4x");
  EXPECT_EQ(report->cells[9].hardware_label, "gflop-gige-16");
  EXPECT_EQ(report->cells[9].report.optimal_nodes, 16);
}

TEST(SweepRunnerTest, ParallelRunIsByteIdenticalToSerial) {
  SweepRunnerOptions serial;
  serial.threads = 1;
  auto a = SweepRunner(serial).Run(SmallGrid());
  ASSERT_TRUE(a.ok());

  SweepRunnerOptions parallel;
  parallel.threads = 4;
  auto b = SweepRunner(parallel).Run(SmallGrid());
  ASSERT_TRUE(b.ok());

  // The whole point of per-cell + per-n seed derivation: scheduling cannot
  // leak into any emitted byte.
  EXPECT_EQ(a->ToCsv(), b->ToCsv());
}

TEST(SweepRunnerTest, BaseSeedChangesSimulatedCells) {
  SweepRunnerOptions options;
  options.base_seed = 1;
  auto a = SweepRunner(options).Run(SmallGrid());
  ASSERT_TRUE(a.ok());
  options.base_seed = 2;
  auto b = SweepRunner(options).Run(SmallGrid());
  ASSERT_TRUE(b.ok());
  // Cell 2 is fig1/gflop-gige/sim: its simulated draws differ per seed,
  // while the analytic side is seed-independent.
  EXPECT_NE(a->cells[2].report.simulated->speedup,
            b->cells[2].report.simulated->speedup);
  EXPECT_EQ(a->cells[0].report.peak_speedup, b->cells[0].report.peak_speedup);
  EXPECT_EQ(a->cells[2].report.peak_speedup, b->cells[2].report.peak_speedup);
}

TEST(SweepRunnerTest, FailedCellKeepsItsRowAndOthersRun) {
  SweepGrid grid = SmallGrid();
  ScenarioAxisPoint bad = Fig1Point("broken", 196.0e9);
  bad.compute_model = "no-such-model";
  grid.AddScenario(bad);
  auto report = SweepRunner().Run(grid);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cells.size(), 18u);
  EXPECT_EQ(report->num_failed(), 6u);
  EXPECT_EQ(report->num_ok(), 12u);
  for (const SweepCellResult& cell : report->cells) {
    if (cell.scenario_label == "broken") {
      EXPECT_FALSE(cell.ok());
      EXPECT_EQ(cell.status.code(), StatusCode::kNotFound);
    } else {
      EXPECT_TRUE(cell.ok());
    }
  }
}

TEST(SweepRunnerTest, SharedCacheGetsHitsAcrossOptionsCells) {
  auto report = SweepRunner().Run(SmallGrid());
  ASSERT_TRUE(report.ok());
  // 3 options cells per scenario x hardware pair share evaluations; the
  // planner and simulator revisit the same node counts again within a cell.
  EXPECT_GT(report->cache_hits, 0u);
  EXPECT_GT(report->cache_misses, 0u);

  SweepRunnerOptions no_cache;
  no_cache.use_eval_cache = false;
  auto uncached = SweepRunner(no_cache).Run(SmallGrid());
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached->cache_hits, 0u);
  EXPECT_EQ(uncached->cache_misses, 0u);
  // Caching is an optimization, never a result change.
  EXPECT_EQ(report->ToCsv(), uncached->ToCsv());
}

TEST(SweepRunnerTest, RankingIsBestPeakFirstWithStableTies) {
  auto report = SweepRunner().Run(SmallGrid());
  ASSERT_TRUE(report.ok());
  std::vector<size_t> ranked = report->RankByPeakSpeedup();
  ASSERT_EQ(ranked.size(), 12u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    double prev = report->cells[ranked[i - 1]].report.peak_speedup;
    double cur = report->cells[ranked[i]].report.peak_speedup;
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(ranked[i - 1], ranked[i]);
    }
  }
}

TEST(SweepRunnerTest, CsvHasHeaderRowPerCellAndMapeOnlyForSimCells) {
  auto report = SweepRunner().Run(SmallGrid());
  ASSERT_TRUE(report.ok());
  std::string csv = report->ToCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "cell,scenario,hardware,options,comm,status,t_ref_s,optimal_nodes,"
            "first_local_peak,peak_speedup,peak_efficiency,scalable,"
            "q1_nodes,q2_nodes,mape_pct,measured_mape_pct,availability,"
            "expected_slowdown,serving_utilization,serving_quantile_latency_s,"
            "q3_replicas,q3_max_qps");
  size_t rows = 0;
  for (char c : csv) rows += (c == '\n');
  EXPECT_EQ(rows, 13u);  // header + 12 cells

  EXPECT_TRUE(report->any_simulated());
  for (const SweepCellResult& cell : report->cells) {
    EXPECT_EQ(cell.report.model_vs_sim_mape.has_value(),
              cell.options_label == "sim");
  }
}

TEST(SweepRunnerTest, RejectsBadThreadCount) {
  for (int threads : {0, kMaxThreads + 1}) {
    SweepRunnerOptions options;
    options.threads = threads;
    auto report = SweepRunner(options).Run(SmallGrid());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << threads;
    EXPECT_NE(report.status().message().find("threads"), std::string::npos);
  }
}

}  // namespace
}  // namespace dmlscale::sweep
