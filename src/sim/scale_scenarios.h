#ifndef DMLSCALE_SIM_SCALE_SCENARIOS_H_
#define DMLSCALE_SIM_SCALE_SCENARIOS_H_

#include <cstdint>

#include "common/status.h"
#include "core/hardware.h"
#include "sim/event_engine.h"
#include "sim/overhead.h"

namespace dmlscale::sim {

/// What a scale scenario measured: the simulated outcome plus the engine's
/// own counters (events executed, windows, messages), from which the bench
/// driver derives events/sec.
struct ScaleStats {
  /// Simulated completion time, seconds.
  double seconds = 0.0;
  EngineStats engine;
};

/// Ring allreduce at cluster scale, simulated event-by-event (not the
/// closed-form core::RingAllReduceComm estimate): every node relays its
/// chunk around the ring for 2(n-1) steps, with per-node multiplicative
/// compute jitter on the reduce-add between hops. One event per (node, step)
/// — ~2 * 10^8 events at n = 10k — which is exactly the load the windowed
/// engine exists for. Runs on lookahead = per-hop wire time, so any shard
/// count gives the identical result.
struct RingScaleConfig {
  int num_nodes = 0;
  /// Gradient size being reduced, bits (each hop moves bits / num_nodes).
  int64_t bits = 0;
  core::LinkSpec link;
  /// Local reduce-add cost per step, seconds (jittered per node).
  double compute_seconds = 0.0;
  /// Log-normal sigma of the per-node jitter (0 = none).
  double straggler_sigma = 0.0;
  uint64_t seed = 1;
  /// Cap on ring steps simulated; 0 = the full 2(n-1). The bench driver
  /// uses a cap to keep CI wall time bounded at large n.
  int max_steps = 0;
  EngineExec exec;
};

[[nodiscard]] Result<ScaleStats> SimulateRingAllReduceAtScale(
    const RingScaleConfig& config);

/// Asynchronous parameter server at cluster scale: each worker loops
/// (jittered compute -> push over the wire -> server applies -> ack ->
/// next iteration) for `steps_per_worker` iterations. Worker RNG streams
/// are derived per worker and owned by the worker's node, so draws are in
/// node-local event order and the result is shard-count-invariant. Requires
/// link.latency_s > 0 (the wire time is the engine lookahead).
struct PsScaleConfig {
  int num_workers = 0;
  int steps_per_worker = 0;
  /// Gradient/update size pushed per iteration, bits.
  int64_t bits = 0;
  core::LinkSpec link;
  double compute_seconds = 0.0;
  double straggler_sigma = 0.0;
  uint64_t seed = 1;
  EngineExec exec;
};

[[nodiscard]] Result<ScaleStats> SimulateParameterServerAtScale(
    const PsScaleConfig& config);

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_SCALE_SCENARIOS_H_
