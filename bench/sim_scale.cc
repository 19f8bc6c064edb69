// Event-engine scale harness: the 10k-node ring-allreduce and 10k-worker
// parameter-server scenarios from sim/scale_scenarios.h, run serially and
// sharded over a thread pool. The JSON output (--benchmark_format=json) is
// the sim perf trajectory; BENCH_sim.json at the repo root is the
// checked-in baseline and CI uploads a fresh run as an artifact on every
// push (next to the nn kernel JSON).
//
// items_per_second is ENGINE EVENTS per second of wall time (UseRealTime:
// sharded runs do their work on pool threads, so main-thread CPU time would
// overstate their throughput) — the engine's own events_executed counter,
// not iterations — so the headline number reads directly as simulator
// throughput. The ring benchmarks cap max_steps to
// keep one iteration at ~2M events (full 2(n-1) steps at n = 10k is
// ~2 * 10^8 events, seconds of wall time: right for a release gate, too
// slow for a repeated-iteration benchmark). The determinism contract is
// covered by tests/sim/engine_determinism_test.cc, not here.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "benchmark_main.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/hardware.h"
#include "sim/event_engine.h"
#include "sim/scale_scenarios.h"

namespace dmlscale {
namespace {

// 10GbE-ish link with switch latency; latency_s keeps the per-hop wire
// time (= engine lookahead) positive even for small chunks.
core::LinkSpec ClusterLink() {
  return core::LinkSpec{.bandwidth_bps = 1e10, .latency_s = 5e-6};
}

sim::EngineExec Exec(int num_shards, ThreadPool* pool) {
  sim::EngineExec exec;
  exec.num_shards = num_shards;
  exec.pool = pool;
  return exec;
}

void ReportEngine(benchmark::State& state, int64_t events, int64_t windows,
                  double sim_seconds) {
  state.SetItemsProcessed(events);  // items/sec == engine events/sec
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kAvgIterations);
  state.counters["windows"] =
      benchmark::Counter(static_cast<double>(windows), benchmark::Counter::kAvgIterations);
  state.counters["sim_seconds"] = benchmark::Counter(sim_seconds);
}

// Ring allreduce at n nodes, step-capped: one event per (node, step).
// Arg(0) = nodes, Arg(1) = shards (1 = serial reference path).
void BM_SimRingAllReduce(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (shards > 1) pool = std::make_unique<ThreadPool>(static_cast<size_t>(shards));

  sim::RingScaleConfig config;
  config.num_nodes = nodes;
  config.bits = static_cast<int64_t>(nodes) * 100000;  // 100kb chunk per hop
  config.link = ClusterLink();
  config.compute_seconds = 2e-6;
  config.straggler_sigma = 0.2;
  config.max_steps = 200;  // ~nodes * 201 events per iteration
  config.exec = Exec(shards, pool.get());

  int64_t events = 0;
  int64_t windows = 0;
  double sim_seconds = 0.0;
  for (auto _ : state) {
    Result<sim::ScaleStats> stats = sim::SimulateRingAllReduceAtScale(config);
    DMLSCALE_CHECK(stats.ok());
    events += stats.value().engine.events_executed;
    windows += stats.value().engine.windows;
    sim_seconds = stats.value().seconds;
    benchmark::DoNotOptimize(events);
  }
  ReportEngine(state, events, windows, sim_seconds);
}
BENCHMARK(BM_SimRingAllReduce)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({10000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Asynchronous parameter server: `nodes` workers push into one server for
// 50 steps each (~2 events per worker-step). Arg(0) = workers,
// Arg(1) = shards.
void BM_SimParameterServer(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (shards > 1) pool = std::make_unique<ThreadPool>(static_cast<size_t>(shards));

  sim::PsScaleConfig config;
  config.num_workers = workers;
  config.steps_per_worker = 50;
  config.bits = 8 * 1024 * 1024;  // 1 MiB gradient push
  config.link = ClusterLink();
  config.compute_seconds = 5e-3;
  config.straggler_sigma = 0.3;
  config.exec = Exec(shards, pool.get());

  int64_t events = 0;
  int64_t windows = 0;
  double sim_seconds = 0.0;
  for (auto _ : state) {
    Result<sim::ScaleStats> stats =
        sim::SimulateParameterServerAtScale(config);
    DMLSCALE_CHECK(stats.ok());
    events += stats.value().engine.events_executed;
    windows += stats.value().engine.windows;
    sim_seconds = stats.value().seconds;
    benchmark::DoNotOptimize(events);
  }
  ReportEngine(state, events, windows, sim_seconds);
}
BENCHMARK(BM_SimParameterServer)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({10000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace dmlscale

int main(int argc, char** argv) {
  return dmlscale::bench::RunBenchmarks(argc, argv);
}
