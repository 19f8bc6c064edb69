// Serving-DES scale harness: requests/sec through the inference-serving
// simulator at fleet sizes up to 1000 replicas, serial and sharded over a
// thread pool. The JSON output (--benchmark_format=json) is the serving
// perf trajectory; BENCH_serve.json at the repo root is the checked-in
// baseline and CI uploads a fresh run as an artifact on every push (next
// to the nn kernel and event-engine JSONs).
//
// items_per_second is MEASURED REQUESTS per second of wall time
// (UseRealTime: sharded runs do their work on pool threads) — the headline
// number reads directly as simulator throughput in its natural unit. The
// engine event count rides along as a counter (each backend request is
// several events: arrive, enqueue, close, depart). The
// determinism contract is covered by tests/serve/serving_sim_test.cc, not
// here.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "benchmark_main.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "serve/cluster.h"
#include "serve/serving_sim.h"

namespace dmlscale {
namespace {

// A busy fleet: ~70% utilization per replica at ~1400 effective qps each,
// dynamic batching on, a 30% cache in front.
serve::ServingSpec FleetSpec(int replicas) {
  serve::ServingSpec spec;
  spec.replicas = replicas;
  spec.arrivals.rate_qps = 1400.0 * replicas;
  spec.batcher.max_batch = 8;
  spec.batcher.max_delay_s = 0.002;
  spec.replica.service.fixed_s = 0.0002;
  spec.replica.service.per_item_s = 0.0003;
  spec.cache.policy = serve::CachePolicy::kLru;
  spec.cache.hit_rate = 0.3;
  spec.cache.hit_latency_s = 100e-6;
  return spec;
}

// Requests through the serving DES. Arg(0) = replicas, Arg(1) = shards
// (1 = serial reference path); 50 measured requests per replica keeps one
// iteration's event count proportional to fleet size.
void BM_ServeFleet(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (shards > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(shards));
  }

  serve::ServingSimConfig config;
  config.spec = FleetSpec(replicas);
  config.num_requests = static_cast<int64_t>(replicas) * 50;
  config.warmup_requests = replicas * 5;
  config.seed = 17;
  config.exec.num_shards = shards;
  config.exec.pool = pool.get();

  int64_t requests = 0;
  int64_t events = 0;
  double p99_s = 0.0;
  for (auto _ : state) {
    Result<serve::ServingSimStats> stats = serve::SimulateServing(config);
    DMLSCALE_CHECK(stats.ok());
    requests += config.num_requests;
    events += stats.value().engine.events_executed;
    p99_s = stats.value().p99_s;
    benchmark::DoNotOptimize(requests);
  }
  state.SetItemsProcessed(requests);  // items/sec == simulated requests/sec
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
  state.counters["p99_s"] = benchmark::Counter(p99_s);
}
BENCHMARK(BM_ServeFleet)
    ->Args({100, 1})
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace dmlscale

int main(int argc, char** argv) {
  return dmlscale::bench::RunBenchmarks(argc, argv);
}
