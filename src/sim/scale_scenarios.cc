#include "sim/scale_scenarios.h"

#include <vector>

#include "common/random.h"

namespace dmlscale::sim {

namespace {

// Seconds to move `bits` across `link` (transfer plus propagation).
double WireSeconds(int64_t bits, const core::LinkSpec& link) {
  return static_cast<double>(bits) / link.bandwidth_bps + link.latency_s;
}

}  // namespace

Result<ScaleStats> SimulateRingAllReduceAtScale(const RingScaleConfig& config) {
  if (config.num_nodes < 1) {
    return Status::InvalidArgument("num_nodes must be >= 1");
  }
  if (config.bits < 0 || config.compute_seconds < 0.0 ||
      config.straggler_sigma < 0.0 || config.max_steps < 0) {
    return Status::InvalidArgument("ring scale parameters must be >= 0");
  }
  DMLSCALE_RETURN_NOT_OK(config.link.Validate());
  const int n = config.num_nodes;
  const int64_t chunk_bits = config.bits / n;
  const double wire = WireSeconds(chunk_bits, config.link);
  if (wire <= 0.0) {
    return Status::InvalidArgument(
        "ring scale scenario needs a positive per-hop wire time (the engine "
        "lookahead)");
  }
  int steps = 2 * (n - 1);
  if (config.max_steps > 0 && config.max_steps < steps) {
    steps = config.max_steps;
  }

  // Per-node jitter multipliers, drawn serially at setup so the sequence is
  // independent of shard layout.
  std::vector<double> jitter(static_cast<size_t>(n), 1.0);
  if (config.straggler_sigma > 0.0) {
    Pcg32 rng(config.seed);
    for (int i = 0; i < n; ++i) {
      jitter[static_cast<size_t>(i)] =
          rng.NextLogNormal(config.straggler_sigma);
    }
  }

  EngineOptions options;
  options.lookahead = wire;
  options.exec = config.exec;
  Engine engine(n, options);
  // Event (node=i, a=s): node i holds the step-s chunk at event.time. It
  // reduce-adds locally (jittered) and relays to its ring successor; the
  // step-`steps` arrival terminates the chain.
  const int kStep = engine.AddHandler([&](const Event& event) {
    const int64_t step = event.a;
    if (step >= steps) return;
    const int node = event.node;
    const double finish =
        event.time +
        config.compute_seconds * jitter[static_cast<size_t>(node)];
    engine.Send(node, (node + 1) % n, wire, finish, kStep, step + 1);
  });
  for (int i = 0; i < n; ++i) {
    engine.MustScheduleAt(i, 0.0, kStep, 0);
  }

  DMLSCALE_ASSIGN_OR_RETURN(EngineStats engine_stats, engine.Run());
  ScaleStats stats;
  stats.seconds = engine_stats.end_time;
  stats.engine = engine_stats;
  return stats;
}

Result<ScaleStats> SimulateParameterServerAtScale(const PsScaleConfig& config) {
  if (config.num_workers < 1 || config.steps_per_worker < 1) {
    return Status::InvalidArgument(
        "num_workers and steps_per_worker must be >= 1");
  }
  if (config.bits < 0 || config.compute_seconds < 0.0 ||
      config.straggler_sigma < 0.0) {
    return Status::InvalidArgument("ps scale parameters must be >= 0");
  }
  DMLSCALE_RETURN_NOT_OK(config.link.Validate());
  const int workers = config.num_workers;
  const int server = workers;  // node ids: [0, workers) workers, then server
  const double wire = WireSeconds(config.bits, config.link);
  if (wire <= 0.0) {
    return Status::InvalidArgument(
        "ps scale scenario needs a positive wire time (the engine "
        "lookahead); give the link a latency");
  }

  // Per-worker state, touched only from that worker's node: a derived RNG
  // stream and the count of pushes issued so far.
  std::vector<Pcg32> rng;
  rng.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    rng.emplace_back(DeriveSeed(config.seed, static_cast<uint64_t>(w)),
                     static_cast<uint64_t>(w));
  }
  std::vector<int> pushes(static_cast<size_t>(workers), 0);
  int64_t updates_applied = 0;  // server-node state

  EngineOptions options;
  options.lookahead = wire;
  options.exec = config.exec;
  Engine engine(workers + 1, options);

  int kWork = -1;
  int kPush = -1;
  // Worker w is free at event.time: run one jittered compute and push the
  // update to the server, until its step budget is spent.
  kWork = engine.AddHandler([&](const Event& event) {
    const int w = event.node;
    if (pushes[static_cast<size_t>(w)] >= config.steps_per_worker) return;
    ++pushes[static_cast<size_t>(w)];
    double multiplier = 1.0;
    if (config.straggler_sigma > 0.0) {
      multiplier =
          rng[static_cast<size_t>(w)].NextLogNormal(config.straggler_sigma);
    }
    engine.Send(w, server, wire,
                event.time + config.compute_seconds * multiplier, kPush, w);
  });
  // Server applies an update and acks the worker, freeing it again.
  kPush = engine.AddHandler([&](const Event& event) {
    ++updates_applied;
    engine.Send(server, static_cast<int>(event.a), wire, event.time, kWork);
  });
  for (int w = 0; w < workers; ++w) {
    engine.MustScheduleAt(w, 0.0, kWork);
  }

  DMLSCALE_ASSIGN_OR_RETURN(EngineStats engine_stats, engine.Run());
  if (updates_applied !=
      static_cast<int64_t>(workers) * config.steps_per_worker) {
    return Status::Internal("ps scale scenario lost updates");
  }
  ScaleStats stats;
  stats.seconds = engine_stats.end_time;
  stats.engine = engine_stats;
  return stats;
}

}  // namespace dmlscale::sim
