// google-benchmark micro-benchmarks of the library's hot paths: the
// Monte-Carlo edge estimator, graph generation and partition statistics,
// one BP superstep, dense/conv forward-backward, the event-queue core, the
// straggler barrier of a generic superstep, and the closed-form model
// evaluations used inside planner sweeps.

#include <benchmark/benchmark.h>

#include "api/scenario.h"
#include "benchmark_main.h"
#include "bp/bp.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "models/gradient_descent.h"
#include "models/graphical_inference.h"
#include "nn/activations.h"
#include "nn/conv_layer.h"
#include "nn/dense_layer.h"
#include "bp/async_bp.h"
#include "sim/collectives.h"
#include "sim/event_engine.h"
#include "sim/param_server.h"
#include "sim/workloads.h"

namespace dmlscale {
namespace {

void BM_MonteCarloEdgeBalance(benchmark::State& state) {
  int64_t vertices = state.range(0);
  Pcg32 gen(1);
  auto degrees =
      graph::PowerLawDegreeSequence(vertices, vertices * 6, 2.1, 1,
                                    vertices / 10, &gen)
          .value();
  Pcg32 rng(2);
  for (auto _ : state) {
    auto balance = models::MonteCarloEdgeBalance(degrees, 16, 1, &rng);
    benchmark::DoNotOptimize(balance.value().max_edges);
  }
  state.SetItemsProcessed(state.iterations() * vertices);
}
BENCHMARK(BM_MonteCarloEdgeBalance)->Arg(10000)->Arg(100000);

void BM_BarabasiAlbertGenerate(benchmark::State& state) {
  int64_t vertices = state.range(0);
  Pcg32 rng(3);
  for (auto _ : state) {
    auto g = graph::BarabasiAlbert(vertices, 3, &rng);
    benchmark::DoNotOptimize(g.value().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * vertices);
}
BENCHMARK(BM_BarabasiAlbertGenerate)->Arg(1000)->Arg(10000);

void BM_PartitionStats(benchmark::State& state) {
  Pcg32 rng(4);
  auto g = graph::BarabasiAlbert(state.range(0), 4, &rng).value();
  auto partition = graph::RandomPartition(g.num_vertices(), 16, &rng).value();
  for (auto _ : state) {
    auto stats = graph::ComputePartitionStats(g, partition);
    benchmark::DoNotOptimize(stats.value().max_edges);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_PartitionStats)->Arg(1000)->Arg(10000);

void BM_BpSuperstep(benchmark::State& state) {
  auto g = graph::Grid2d(state.range(0), state.range(0)).value();
  Pcg32 rng(5);
  auto mrf = bp::PairwiseMrf::Random(&g, 2, 0.4, &rng).value();
  bp::LoopyBp solver(&mrf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Step());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_BpSuperstep)->Arg(16)->Arg(64);

void BM_DenseForwardBackward(benchmark::State& state) {
  Pcg32 rng(6);
  nn::DenseLayer layer(state.range(0), state.range(0), &rng);
  nn::Tensor input({8, state.range(0)});
  input.FillGaussian(1.0, &rng);
  for (auto _ : state) {
    auto out = layer.Forward(input);
    auto grad = layer.Backward(out.value());
    benchmark::DoNotOptimize(grad.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 8 *
                          layer.ForwardMultiplyAddsPerExample());
}
BENCHMARK(BM_DenseForwardBackward)->Arg(64)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  Pcg32 rng(7);
  nn::Conv2dLayer layer(3, 8, 3, state.range(0), 1, 1, &rng);
  nn::Tensor input({2, 3, state.range(0), state.range(0)});
  input.FillGaussian(1.0, &rng);
  for (auto _ : state) {
    auto out = layer.Forward(input);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          layer.ForwardMultiplyAddsPerExample());
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(32);

void BM_EngineEventLoop(benchmark::State& state) {
  sim::EngineOptions options;
  options.lookahead = 1.0;  // one window per distinct event time
  for (auto _ : state) {
    sim::Engine engine(1, options);
    const int type = engine.AddHandler([](const sim::Event&) {});
    for (int i = 0; i < state.range(0); ++i) {
      engine.MustScheduleAt(0, static_cast<double>(i % 97), type);
    }
    benchmark::DoNotOptimize(engine.Run().value().end_time);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventLoop)->Arg(1000)->Arg(10000);

void BM_TreeReduceSimulation(benchmark::State& state) {
  std::vector<double> ready(static_cast<size_t>(state.range(0)), 0.0);
  core::LinkSpec link{.bandwidth_bps = 1e9};
  for (auto _ : state) {
    auto t = sim::SimulateTreeReduce(ready, 1e6, link,
                                     sim::OverheadModel::None());
    benchmark::DoNotOptimize(t.value());
  }
}
BENCHMARK(BM_TreeReduceSimulation)->Arg(16)->Arg(256);

void BM_AsyncBpSweep(benchmark::State& state) {
  auto g = graph::Grid2d(state.range(0), state.range(0)).value();
  Pcg32 rng(8);
  auto mrf = bp::PairwiseMrf::Random(&g, 2, 0.4, &rng).value();
  bp::AsyncLoopyBp solver(&mrf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Sweep());
  }
  state.SetItemsProcessed(state.iterations() * 4 * g.num_edges());
}
BENCHMARK(BM_AsyncBpSweep)->Arg(16)->Arg(64);

void BM_ParamServerSimulation(benchmark::State& state) {
  sim::ParamServerConfig config{
      .ops_per_update = 1e8,
      .message_bits = 32e6,
      .node = core::NodeSpec{.name = "u", .peak_flops = 1e9, .efficiency = 1.0},
      .worker_link = core::LinkSpec{.bandwidth_bps = 1e9},
      .server_link = core::LinkSpec{.bandwidth_bps = 1e9},
      .overhead = sim::OverheadModel::None(),
      .target_updates = 100};
  Pcg32 rng(9);
  for (auto _ : state) {
    auto stats =
        sim::SimulateParameterServer(config, static_cast<int>(state.range(0)),
                                     &rng);
    benchmark::DoNotOptimize(stats.value().updates_per_sec);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ParamServerSimulation)->Arg(4)->Arg(16);

void BM_GenericSuperstep(benchmark::State& state) {
  // One sim-spark-overhead point: 40 Spark-like supersteps, each waiting
  // for the slowest of n jittered workers.
  const int n = static_cast<int>(state.range(0));
  sim::SuperstepSimConfig config{
      .message_bits = 1e6,
      .overhead = sim::OverheadModel::SparkLike(),
      .supersteps = 40};
  Pcg32 rng(10);
  for (auto _ : state) {
    auto t = sim::SimulateGenericSuperstep(config, n, 196.0 / n, 0.01 * n,
                                           &rng);
    benchmark::DoNotOptimize(t.value());
  }
  state.SetItemsProcessed(state.iterations() * config.supersteps * n);
}
BENCHMARK(BM_GenericSuperstep)->Arg(16)->Arg(128)->Arg(1024);

void BM_SparkModelSweep(benchmark::State& state) {
  models::GdWorkload workload = models::SparkMnistWorkload();
  api::Scenario model =
      api::Scenario::Builder()
          .Hardware(core::presets::XeonE3_1240Double())
          .Link(core::LinkSpec{.bandwidth_bps = 1e9})
          .Compute("perfectly-parallel",
                   {{"total_flops",
                     workload.ops_per_example * workload.batch_size}})
          .Comm("spark-gd", {{"bits", workload.MessageBits()}})
          .Build()
          .value();
  for (auto _ : state) {
    double acc = 0.0;
    for (int n = 1; n <= 128; ++n) acc += model.Seconds(n);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SparkModelSweep);

}  // namespace
}  // namespace dmlscale

int main(int argc, char** argv) {
  return dmlscale::bench::RunBenchmarks(argc, argv);
}
