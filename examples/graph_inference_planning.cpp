// Graphical-model inference planning (Section IV-B / V-B end to end):
// generate a power-law graph standing in for real traffic data, estimate
// the per-worker edge balance with the Monte-Carlo method, declare the
// inference scenario through the dmlscale::api facade (the bottleneck
// compute escape hatch + shared memory), and pick a worker count with
// Analysis::Run. Then actually run loopy BP partition-parallel to verify
// convergence and compare the measured imbalance with the prediction.
//
//   ./graph_inference_planning [--vertices=20000] [--states=2]

#include <iostream>

#include "api/api.h"
#include "bp/bp.h"
#include "bp/parallel_bp.h"
#include "common/arg_parser.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "models/graphical_inference.h"

using namespace dmlscale;  // NOLINT: example brevity

int main(int argc, char** argv) {
  auto args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 1;
  }
  if (Status status = args->CheckKnown({"vertices", "states", "help"});
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  if (args->GetBool("help", false)) {
    std::cout << "Flags: --vertices --states\n";
    return 0;
  }
  int64_t vertices = args->GetInt("vertices", 20000);
  int64_t states_flag = args->GetInt("states", 2);
  if (states_flag < 1) {
    std::cerr << Status::InvalidArgument("--states must be >= 1, got " +
                                         std::to_string(states_flag))
              << "\n";
    return 1;
  }
  int states = static_cast<int>(states_flag);

  Pcg32 rng(1234);
  auto g = graph::BarabasiAlbert(vertices, 3, &rng);
  if (!g.ok()) {
    std::cerr << g.status() << "\n";
    return 1;
  }
  auto stats = graph::ComputeDegreeStats(*g);
  std::cout << "Graph: " << g->num_vertices() << " vertices, "
            << g->num_edges() << " edges, max degree " << stats.max_degree
            << ", degree Gini " << FormatDouble(stats.gini, 3) << "\n\n";

  // The scalability scenario from the degree sequence alone: the Section
  // IV-B bottleneck `max_i(E_i) * c(S)` goes in through the builder's
  // compute escape hatch; the DL980 runs are shared-memory (Section V-B).
  auto max_edges =
      models::MemoizedMonteCarloMaxEdges(g->DegreeSequence(), 10, 99);
  double ops_per_edge = models::BpOperationsPerEdge(states);
  auto scenario =
      api::Scenario::Builder()
          .Name("graph-inference")
          .Hardware(api::presets::Dl980Core())
          .SharedMemory()
          .MaxNodes(64)
          .Compute([max_edges, ops_per_edge](
                       int n) { return max_edges(n) * ops_per_edge; },
                   "mc-bottleneck-bp")
          .Build();
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    return 1;
  }
  auto report = api::Analysis::Run(*scenario);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }

  std::cout << "Predicted BP speedup (c(S) = " << ops_per_edge
            << " ops/edge, shared memory):\n";
  TablePrinter table({"workers", "predicted speedup", "imbalance max/mean"});
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    auto speedup = report->curve.At(n);
    if (!speedup.ok()) {
      std::cerr << speedup.status() << "\n";
      return 1;
    }
    Pcg32 mc_rng(7, static_cast<uint64_t>(n));
    auto balance =
        models::MonteCarloEdgeBalance(g->DegreeSequence(), n, 5, &mc_rng)
            .value();
    table.AddRow({std::to_string(n), FormatDouble(speedup.value(), 4),
                  FormatDouble(balance.max_edges / balance.mean_edges, 4)});
  }
  table.Print(std::cout);
  std::cout << "Analysis optimum within 64 workers: " << report->optimal_nodes
            << " (peak speedup " << FormatDouble(report->peak_speedup, 4)
            << ")\n";

  // Now run the real thing with the chosen worker count.
  int chosen = 8;
  std::cout << "\nRunning partition-parallel loopy BP with " << chosen
            << " workers...\n";
  auto mrf = bp::PairwiseMrf::Random(&*g, states, 0.3, &rng);
  if (!mrf.ok()) {
    std::cerr << mrf.status() << "\n";
    return 1;
  }
  bp::LoopyBp solver(&*mrf);
  auto partition = graph::RandomPartition(g->num_vertices(), chosen, &rng);
  auto run = bp::RunParallelBp(&solver, *partition,
                               {.max_iterations = 50, .tolerance = 1e-6},
                               /*num_threads=*/chosen);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  std::cout << "Converged: " << (run->run.converged ? "yes" : "no") << " in "
            << run->run.iterations << " supersteps (final delta "
            << FormatDouble(run->run.final_delta, 3) << ")\n";
  double max_load = 0.0, sum_load = 0.0;
  for (int64_t e : run->edges_per_worker) {
    max_load = std::max(max_load, static_cast<double>(e));
    sum_load += static_cast<double>(e);
  }
  std::cout << "Measured worker imbalance max/mean: "
            << FormatDouble(max_load / (sum_load / chosen), 4)
            << " — compare with the prediction above.\n"
            << "Cut directed edges (the distributed deployment's "
               "per-superstep messages): "
            << run->cut_directed_edges << "\n";
  return 0;
}
