#ifndef DMLSCALE_SERVE_SERVING_SIM_H_
#define DMLSCALE_SERVE_SERVING_SIM_H_

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "serve/cluster.h"
#include "sim/event_engine.h"

namespace dmlscale::serve {

/// One serving DES run: `num_requests` measured requests (after
/// `warmup_requests` discarded ones) driven through sim::Engine as typed
/// POD events — arrive -> cache probe -> enqueue -> batch-close ->
/// execute -> depart.
///
/// Determinism: node ids [0, replicas) are the replicas, node `replicas`
/// is the frontend (arrival stream + cache + dispatch per
/// ServingSpec::dispatch, least-outstanding by default). Every piece of
/// mutable state — the arrival process, the cache RNG, the dispatch cursor
/// and outstanding-count index, per-replica batch queues, per-node latency
/// histograms — is owned by exactly one node and touched only by handlers
/// dispatched on it; cross-node effects travel through Send() with delay =
/// `wire_s` (the engine lookahead). Per-node histograms merge in node order
/// after the run. By the engine's windowed-mode contract the result is
/// therefore bit-identical for every shard count — EXPECT_EQ-tested at
/// 1/2/4/8.
struct ServingSimConfig {
  ServingSpec spec;
  /// Measured requests (> 0).
  int64_t num_requests = 10000;
  /// Leading requests excluded from the latency histogram (>= 0) — warmup
  /// membership is decided by request id, not completion order, so it is
  /// shard-invariant.
  int64_t warmup_requests = 0;
  uint64_t seed = 1;
  /// Frontend->replica dispatch wire time, seconds (> 0; doubles as the
  /// engine lookahead). The response path is priced additively.
  double wire_s = 50e-6;
  sim::EngineExec exec;

  [[nodiscard]] Status Validate() const;
};

/// What one run measured. All fields are pure functions of (config) —
/// independent of shard count and thread interleaving.
struct ServingSimStats {
  /// Measured request latencies (arrival -> response, wire included for
  /// backend requests).
  Histogram latency;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double mean_latency_s = 0.0;
  /// Time of the last departure.
  double duration_s = 0.0;
  /// Measured offered rate: total arrivals / arrival span.
  double offered_qps = 0.0;
  /// Completed measured requests / duration.
  double completed_qps = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Per-replica busy time fraction (node order), and its mean.
  std::vector<double> replica_utilization;
  double mean_replica_utilization = 0.0;
  /// Executed batches and the mean executed batch size.
  int64_t batches = 0;
  double mean_batch = 0.0;
  sim::EngineStats engine;
};

[[nodiscard]] Result<ServingSimStats> SimulateServing(
    const ServingSimConfig& config);

}  // namespace dmlscale::serve

#endif  // DMLSCALE_SERVE_SERVING_SIM_H_
