#include "sim/param_server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/event_heap.h"

namespace dmlscale::sim {

Status ParamServerConfig::Validate() const {
  if (!std::isfinite(ops_per_update) || ops_per_update <= 0.0) {
    return Status::InvalidArgument("ops_per_update must be finite and > 0");
  }
  if (!std::isfinite(message_bits) || message_bits <= 0.0) {
    return Status::InvalidArgument("message_bits must be finite and > 0");
  }
  DMLSCALE_RETURN_NOT_OK(node.Validate());
  DMLSCALE_RETURN_NOT_OK(worker_link.Validate());
  DMLSCALE_RETURN_NOT_OK(server_link.Validate());
  DMLSCALE_RETURN_NOT_OK(overhead.Validate());
  if (target_updates < 1) {
    return Status::InvalidArgument("target_updates must be >= 1");
  }
  return Status::OK();
}

Result<ParamServerStats> SimulateParameterServer(
    const ParamServerConfig& config, int n, Pcg32* rng) {
  DMLSCALE_RETURN_NOT_OK(config.Validate());
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  const double compute_base =
      config.ops_per_update / config.node.EffectiveFlops();
  // Cut-through transfers: the message streams through the worker link and
  // the server NIC simultaneously, so the end-to-end time is set by the
  // slower hop (occupying the server NIC for that duration) plus the
  // worker-link propagation latency. This matches the single-hop
  // accounting of the closed-form AsyncGdModel.
  const double wire = config.worker_link.latency_s;
  const double nic_occupancy =
      config.message_bits / std::min(config.server_link.bandwidth_bps,
                                     config.worker_link.bandwidth_bps) +
      config.overhead.serialize_s_per_bit * config.message_bits;
  const int64_t target = config.target_updates;
  const OverheadModel overhead = config.overhead;

  double nic_free = 0.0;
  double nic_busy_total = 0.0;
  int64_t version = 0;  // global update counter
  int64_t completed = 0;
  double staleness_sum = 0.0;
  double staleness_max = 0.0;
  double last_completion = 0.0;

  // Reserves the server NIC starting no earlier than `earliest`; returns
  // the completion time.
  auto reserve_nic = [&](double earliest) {
    double start = std::max(earliest, nic_free);
    double done = start + nic_occupancy;
    nic_free = done;
    nic_busy_total += nic_occupancy;
    return done;
  };

  // Worker `node`'s loop is three events (loop start -> compute done ->
  // push applied), each carrying the version `a` it pulled. They pop in one
  // (time, seq) order with seq stamped at each push, which fixes both the
  // NIC reservation order and the order jitter is drawn from `rng`.
  constexpr int32_t kLoopStart = 0;
  constexpr int32_t kComputeDone = 1;
  constexpr int32_t kPushApplied = 2;
  EventHeap events;
  uint64_t seq = 0;
  for (int w = 0; w < n; ++w) {
    events.Push(Event{.time = 0.0, .seq = seq++, .type = kLoopStart,
                      .node = w});
  }
  while (!events.empty()) {
    const Event event = events.PopTop();
    switch (event.type) {
      case kLoopStart: {
        // Start computing on the parameters pulled at version `a`.
        double compute = compute_base * overhead.SampleJitter(rng);
        events.Push(Event{.time = event.time + compute, .seq = seq++,
                          .type = kComputeDone, .node = event.node,
                          .a = event.a});
        break;
      }
      case kComputeDone: {
        // The gradient is ready: push over the wire onto the NIC.
        double push_done = reserve_nic(event.time + wire);
        events.Push(Event{.time = push_done, .seq = seq++,
                          .type = kPushApplied, .node = event.node,
                          .a = event.a});
        break;
      }
      case kPushApplied: {
        // The server applies the update: staleness is the number of
        // updates applied since the pull.
        double staleness = static_cast<double>(version - event.a);
        version += 1;
        completed += 1;
        staleness_sum += staleness;
        staleness_max = std::max(staleness_max, staleness);
        last_completion = event.time;
        if (completed >= target) break;  // stop spawning
        // Pull the fresh parameters and go again.
        double pull_done = reserve_nic(event.time);
        events.Push(Event{.time = pull_done + wire, .seq = seq++,
                          .type = kLoopStart, .node = event.node,
                          .a = version});
        break;
      }
    }
  }

  ParamServerStats stats;
  stats.completed_updates = completed;
  if (last_completion > 0.0) {
    stats.updates_per_sec = static_cast<double>(completed) / last_completion;
    stats.server_utilization = std::min(1.0, nic_busy_total / last_completion);
  }
  if (completed > 0) {
    stats.mean_staleness = staleness_sum / static_cast<double>(completed);
    stats.max_staleness = staleness_max;
  }
  return stats;
}

}  // namespace dmlscale::sim
