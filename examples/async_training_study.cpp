// Asynchronous-training study (Section VI future work): decide between
// synchronous and asynchronous data parallelism for a workload, accounting
// for the convergence penalties each strategy pays — large effective
// batches for sync, gradient staleness for async.
//
// The synchronous strong-scaling question at the end goes through the
// dmlscale::api facade (scenario declaration + Analysis::Run answering the
// paper's Q1); the async models extend beyond the BSP facade and stay on
// models::AsyncGdModel.
//
//   ./async_training_study [--features=1e7] [--batch=1000]

#include <iostream>

#include "api/api.h"
#include "common/arg_parser.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "models/async_gd.h"
#include "sim/param_server.h"

using namespace dmlscale;  // NOLINT: example brevity

int main(int argc, char** argv) {
  auto args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 1;
  }
  if (Status status = args->CheckKnown({"features", "batch", "help"});
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  if (args->GetBool("help", false)) {
    std::cout << "Flags: --features --batch\n";
    return 0;
  }
  // A click-through-rate style logistic regression: wide and sparse-ish.
  double features = args->GetDouble("features", 1e7);
  double batch = args->GetDouble("batch", 1000.0);
  models::GdWorkload workload =
      models::LogisticRegressionWorkload(features, batch, 32.0);
  if (Status status = workload.Validate(); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  core::NodeSpec node{.name = "worker", .peak_flops = 50e9, .efficiency = 0.8};
  core::LinkSpec link = api::presets::TenGigabitEthernet();

  models::WeakScalingSgdModel sync_model(workload, node, link);
  models::AsyncGdModel async_model(workload, node, link);
  models::ConvergenceModel convergence{.base_iterations = 5000.0,
                                       .batch_penalty_alpha = 0.6,
                                       .staleness_penalty = 0.03};

  std::cout << "Workload: logistic regression, W = " << HumanCount(features)
            << " params, per-worker batch " << batch << "\n"
            << "Async worker cycle: "
            << FormatDouble(async_model.WorkerCycleSeconds(), 4)
            << " s; parameter server saturates at "
            << async_model.SaturationWorkers() << " workers\n\n";

  TablePrinter table({"workers", "sync time-to-acc s", "async time-to-acc s",
                      "async staleness"});
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    table.AddRow(
        {std::to_string(n),
         FormatDouble(models::SyncTimeToAccuracy(convergence, sync_model, n), 4),
         FormatDouble(models::AsyncTimeToAccuracy(convergence, async_model, n),
                      4),
         FormatDouble(async_model.ExpectedStaleness(n), 4)});
  }
  table.Print(std::cout);

  // Sanity-check the async column against the event-driven simulator.
  sim::ParamServerConfig config{
      .ops_per_update = workload.ops_per_example * workload.batch_size,
      .message_bits = workload.MessageBits(),
      .node = node,
      .worker_link = link,
      .server_link = link,
      .overhead = sim::OverheadModel::None(),
      .target_updates = 200};
  Pcg32 rng(1);
  auto stats = sim::SimulateParameterServer(config, 16, &rng);
  if (!stats.ok()) {
    std::cerr << stats.status() << "\n";
    return 1;
  }
  std::cout << "\nSimulator check at 16 workers: "
            << FormatDouble(stats->updates_per_sec, 4) << " upd/s vs model "
            << FormatDouble(async_model.ThroughputUpdatesPerSec(16), 4)
            << "; staleness " << FormatDouble(stats->mean_staleness, 4)
            << " vs model "
            << FormatDouble(async_model.ExpectedStaleness(16), 4) << "\n\n";

  // The strong-scaling (fixed total batch) variant of this job, as a
  // facade scenario: the paper's generic GD model is perfectly parallel
  // computation plus a two-round tree exchange of the 32-bit gradient.
  // Analysis::Run answers Q1 — the machines needed to halve the
  // single-node iteration time — alongside the curve.
  models::GdWorkload big_batch = workload;
  big_batch.batch_size = batch * 64.0;
  auto scenario =
      api::Scenario::Builder()
          .Name("ctr-strong-scaling")
          .Hardware(node)
          .Link(link)
          .MaxNodes(64)
          .Compute("perfectly-parallel",
                   {{"total_flops",
                     big_batch.ops_per_example * big_batch.batch_size}})
          .Comm("tree", {{"bits", big_batch.MessageBits()}, {"rounds", 2}})
          .Build();
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    return 1;
  }
  api::AnalysisOptions options;
  options.target_speedup = 2.0;  // halve the single-node iteration time
  options.current_nodes = 1;
  auto report = api::Analysis::Run(*scenario, options);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  api::PrintReport(*report, std::cout);
  if (report->speedup_answer.has_value() &&
      report->speedup_answer->achievable) {
    int n = report->speedup_answer->nodes;
    std::cout << "Smallest strong-scaling cluster that halves the "
                 "single-node iteration time: "
              << n << " workers (" << FormatDouble(scenario->Seconds(n), 4)
              << " s vs " << FormatDouble(scenario->Seconds(1), 4) << " s)\n";
  } else {
    std::cout << "No cluster within 64 workers halves the iteration time.\n";
  }
  return 0;
}
