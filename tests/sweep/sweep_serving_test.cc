// The sweep's serving ablation surface: scenario points carrying qps/replica
// serving params, serving cells land utilization / quantile-latency
// / Q3 columns in the CSV, serving-free cells leave them empty, and the
// whole sweep stays byte-identical across thread counts.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "api/presets.h"
#include "sweep/grid.h"
#include "sweep/report.h"
#include "sweep/runner.h"

namespace dmlscale::sweep {
namespace {

ScenarioAxisPoint Fig1Point(const std::string& label) {
  return ScenarioAxisPoint{.label = label,
                           .compute_model = "perfectly-parallel",
                           .compute_params = {{"total_flops", 196.0e9}},
                           .comm_model = "linear",
                           .comm_params = {{"bits", 1e9}},
                           .supersteps = 1};
}

/// Fig. 1 fanned over a qps x replicas serving axis (plus the serving-free
/// base point). Every point carries the latency SLO, so the q3_max_qps
/// column fills too.
SweepGrid ServingGrid() {
  SweepGrid grid;
  grid.AddScenario(Fig1Point("fig1"));
  for (double qps : {1000.0, 2000.0}) {
    for (double replicas : {4.0, 8.0}) {
      ScenarioAxisPoint point =
          Fig1Point("fig1-qps" + std::to_string(static_cast<int>(qps)) +
                    "-r" + std::to_string(static_cast<int>(replicas)));
      point.serving_params.Set("qps", qps);
      point.serving_params.Set("replicas", replicas);
      point.serving_params.Set("service_per_item", 0.001);
      point.serving_params.Set("target_qps", qps);
      point.serving_params.Set("target_latency", 0.02);
      grid.AddScenario(std::move(point));
    }
  }
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  return grid;
}

TEST(SweepServingTest, ServingCellsFillTheNewCsvColumns) {
  auto report = SweepRunner().Run(ServingGrid());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_failed(), 0u);
  int serving_cells = 0;
  for (const SweepCellResult& cell : report->cells) {
    if (cell.scenario_label == "fig1") {
      EXPECT_FALSE(cell.report.serving.has_value());
      EXPECT_FALSE(cell.report.serving_replicas_answer.has_value());
      EXPECT_FALSE(cell.report.serving_max_qps_answer.has_value());
      continue;
    }
    ASSERT_TRUE(cell.report.serving.has_value()) << cell.scenario_label;
    EXPECT_GT(cell.report.serving->utilization, 0.0);
    EXPECT_LT(cell.report.serving->utilization, 1.0);
    EXPECT_GT(cell.report.serving->quantile_latency_s, 0.0);
    ASSERT_TRUE(cell.report.serving_replicas_answer.has_value());
    EXPECT_TRUE(cell.report.serving_replicas_answer->achievable);
    ASSERT_TRUE(cell.report.serving_max_qps_answer.has_value());
    EXPECT_TRUE(cell.report.serving_max_qps_answer->achievable);
    ++serving_cells;
  }
  EXPECT_EQ(serving_cells, 4);
  // The columns reach the CSV itself.
  std::string csv = report->ToCsv();
  EXPECT_NE(
      csv.find("serving_utilization,serving_quantile_latency_s,q3_replicas,"
               "q3_max_qps"),
      std::string::npos);
}

TEST(SweepServingTest, ServingFreeCellsLeaveTheServingColumnsEmpty) {
  SweepGrid grid;
  grid.AddScenario(Fig1Point("fig1"));
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  auto report = SweepRunner().Run(grid);
  ASSERT_TRUE(report.ok());
  std::string csv = report->ToCsv();
  // The data row ends with the four empty serving cells.
  std::string row = csv.substr(csv.find('\n') + 1);
  if (!row.empty() && row.back() == '\n') row.pop_back();
  EXPECT_EQ(row.substr(row.size() - 4), ",,,,");
}

TEST(SweepServingTest, ServingSweepIsByteIdenticalAcrossThreadCounts) {
  SweepRunnerOptions serial;
  serial.threads = 1;
  auto a = SweepRunner(serial).Run(ServingGrid());
  ASSERT_TRUE(a.ok());

  SweepRunnerOptions threaded;
  threaded.threads = 4;
  auto b = SweepRunner(threaded).Run(ServingGrid());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToCsv(), b->ToCsv());
}

}  // namespace
}  // namespace dmlscale::sweep
