// Serving-DES scale harness: requests/sec through the inference-serving
// simulator at fleet sizes up to 1000 replicas, serial and sharded over a
// thread pool, and the frontend's least-outstanding dispatch alone at up to
// 4096 replicas. The JSON output (--benchmark_format=json) is the serving
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

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "benchmark_main.h"
#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "serve/cluster.h"
#include "serve/dispatch_index.h"
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

// The serving frontend's dispatch path alone, one iteration per request:
// Pick from the cursor, count the request against the pick, and advance the
// cursor past it. Every 8th request a replica drawn from a fixed-seed
// stream acks up to 8 of its outstanding requests (one batch at FleetSpec's
// max_batch), so the counts settle near 8 and ties stay common, as in a busy
// fleet. Arg(0) = replicas: 989 is the serve-fleet answer, 4096 the
// planner's default max_replicas. Time per iteration is time per dispatch.
void BM_LeastOutstandingDispatch(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  serve::LeastOutstandingIndex index(replicas);
  std::vector<int64_t> outstanding(static_cast<size_t>(replicas), 0);
  Pcg32 rng(23, 7);
  int cursor = 0;
  int64_t dispatched = 0;
  for (auto _ : state) {
    const int pick = index.Pick(cursor);
    benchmark::DoNotOptimize(pick);
    index.Add(pick, 1);
    ++outstanding[static_cast<size_t>(pick)];
    cursor = pick + 1 == replicas ? 0 : pick + 1;
    if (++dispatched % 8 == 0) {
      const auto r = rng.NextBounded(static_cast<uint32_t>(replicas));
      const int64_t acked = std::min<int64_t>(outstanding[r], 8);
      if (acked > 0) {
        index.Add(static_cast<int>(r), -acked);
        outstanding[r] -= acked;
      }
    }
  }
  state.SetItemsProcessed(dispatched);  // items/sec == dispatches/sec
}
BENCHMARK(BM_LeastOutstandingDispatch)
    ->Arg(100)
    ->Arg(989)
    ->Arg(4096)
    ->Unit(benchmark::kNanosecond)
    ->UseRealTime();

}  // namespace
}  // namespace dmlscale

int main(int argc, char** argv) {
  return dmlscale::bench::RunBenchmarks(argc, argv);
}
