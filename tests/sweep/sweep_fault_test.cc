// The sweep's failure-model ablation surface: scenario points carrying
// MTBF/straggler fault params, fault cells land availability and
// expected-slowdown columns in the CSV, the whole thing stays byte-identical
// across thread counts, and a failed cell's one retry is recorded in the
// status column.

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

/// Fig. 1 fanned over an MTBF x straggler failure axis (plus the perfect
/// cluster as the base point).
SweepGrid FaultGrid() {
  SweepGrid grid;
  grid.AddScenario(Fig1Point("fig1"));
  for (double mtbf : {10000.0, 40000.0}) {
    for (double sigma : {0.0, 0.3}) {
      ScenarioAxisPoint point = Fig1Point(
          "fig1-mtbf" + std::to_string(static_cast<int>(mtbf)) + "-sig" +
          std::to_string(static_cast<int>(sigma * 10)));
      point.fault_params.Set("mtbf", mtbf);
      point.fault_params.Set("mttr", 60.0);
      point.fault_params.Set("checkpoint_cost", 20.0);
      if (sigma > 0.0) point.fault_params.Set("straggler", sigma);
      grid.AddScenario(std::move(point));
    }
  }
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  return grid;
}

TEST(SweepFaultTest, FaultCellsFillTheNewCsvColumns) {
  auto report = SweepRunner().Run(FaultGrid());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_failed(), 0u);
  int fault_cells = 0;
  for (const SweepCellResult& cell : report->cells) {
    if (cell.scenario_label == "fig1") {
      EXPECT_FALSE(cell.report.availability.has_value());
      continue;
    }
    ASSERT_TRUE(cell.report.availability.has_value()) << cell.scenario_label;
    EXPECT_GT(*cell.report.availability, 0.99);
    ASSERT_TRUE(cell.report.expected_slowdown.has_value());
    EXPECT_GT(*cell.report.expected_slowdown, 1.0);
    ++fault_cells;
  }
  EXPECT_EQ(fault_cells, 4);
  // The columns reach the CSV itself.
  std::string csv = report->ToCsv();
  EXPECT_NE(csv.find("availability,expected_slowdown"), std::string::npos);
}

TEST(SweepFaultTest, FaultSweepIsByteIdenticalAcrossThreadCounts) {
  SweepRunnerOptions serial;
  serial.threads = 1;
  auto a = SweepRunner(serial).Run(FaultGrid());
  ASSERT_TRUE(a.ok());

  SweepRunnerOptions threaded;
  threaded.threads = 4;
  auto b = SweepRunner(threaded).Run(FaultGrid());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToCsv(), b->ToCsv());
}

TEST(SweepFaultTest, FailedCellRecordsItsRetryInTheStatusColumn) {
  SweepGrid grid;
  grid.AddScenario(Fig1Point("ok"));
  // An unknown comm model fails BuildScenario deterministically — both the
  // attempt and its retry — so the row records attempts=2 and the rest of
  // the sweep survives.
  ScenarioAxisPoint broken = Fig1Point("broken");
  broken.comm_model = "gossip";
  grid.AddScenario(broken);
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  auto report = SweepRunner().Run(grid);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_ok(), 1u);
  EXPECT_EQ(report->num_failed(), 1u);
  const SweepCellResult& failed = report->cells[1];
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.attempts, 2);
  EXPECT_NE(report->ToCsv().find("(attempts=2)"), std::string::npos);
  // Ok cells never report attempts.
  EXPECT_EQ(report->cells[0].attempts, 1);
}

}  // namespace
}  // namespace dmlscale::sweep
