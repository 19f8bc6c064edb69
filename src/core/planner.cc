#include "core/planner.h"

#include <string>

#include "common/check.h"
#include "common/string_util.h"

namespace dmlscale::core {

CapacityPlanner::CapacityPlanner(ScalableTimeFn time_fn, int max_nodes)
    : time_fn_(std::move(time_fn)), max_nodes_(max_nodes) {
  DMLSCALE_CHECK(time_fn_ != nullptr);
  DMLSCALE_CHECK_GE(max_nodes_, 1);
}

Result<int> CapacityPlanner::NodesToSpeedUp(int current_nodes,
                                            double factor) const {
  if (current_nodes < 1 || current_nodes > max_nodes_) {
    return Status::InvalidArgument("current_nodes out of range");
  }
  if (factor <= 0.0) return Status::InvalidArgument("factor must be > 0");
  double target = time_fn_(current_nodes, 1.0) / factor;
  // "How many MORE machines": never answer with a smaller cluster than the
  // one already running, even when the curve is flat below current_nodes.
  return NodesForTargetTime(target, current_nodes);
}

Result<int> CapacityPlanner::NodesForTargetTime(double target_seconds,
                                                int min_nodes) const {
  if (target_seconds <= 0.0) {
    return Status::InvalidArgument("target time must be > 0");
  }
  if (min_nodes < 1 || min_nodes > max_nodes_) {
    return Status::InvalidArgument("min_nodes out of range");
  }
  for (int n = min_nodes; n <= max_nodes_; ++n) {
    if (time_fn_(n, 1.0) <= target_seconds) return n;
  }
  return Status::NotFound("no node count within " +
                          std::to_string(max_nodes_) +
                          " reaches the target time");
}

Result<int> CapacityPlanner::NodesForWorkloadGrowth(int current_nodes,
                                                    double growth) const {
  if (current_nodes < 1 || current_nodes > max_nodes_) {
    return Status::InvalidArgument("current_nodes out of range");
  }
  if (growth <= 0.0) return Status::InvalidArgument("growth must be > 0");
  double current_time = time_fn_(current_nodes, 1.0);
  for (int n = current_nodes; n <= max_nodes_; ++n) {
    if (time_fn_(n, growth) <= current_time) return n;
  }
  return Status::NotFound("growth cannot be absorbed within max_nodes");
}

Result<int> CapacityPlanner::NodesForTargetTimeUnderFaults(
    double target_seconds, const FaultSpec& faults,
    const std::vector<double>& max_slowdown, int min_nodes) const {
  if (target_seconds <= 0.0) {
    return Status::InvalidArgument("target time must be > 0");
  }
  if (min_nodes < 1 || min_nodes > max_nodes_) {
    return Status::InvalidArgument("min_nodes out of range");
  }
  DMLSCALE_RETURN_NOT_OK(faults.Validate());
  DMLSCALE_CHECK_GT(max_slowdown.size(), static_cast<size_t>(max_nodes_));
  for (int n = min_nodes; n <= max_nodes_; ++n) {
    Result<double> expected = ExpectedCompletionSeconds(
        faults, n, time_fn_(n, 1.0), max_slowdown[static_cast<size_t>(n)]);
    // A node count whose recovery saturates (replica takeover drag >= 1)
    // simply cannot hit any target; keep scanning.
    if (!expected.ok()) continue;
    if (expected.value() <= target_seconds) return n;
  }
  return Status::NotFound(
      "no node count within " + std::to_string(max_nodes_) +
      " reaches the target time once failures are accounted for");
}

Result<double> CapacityPlanner::OptimalCheckpointInterval(
    int nodes, const FaultSpec& faults) const {
  if (nodes < 1 || nodes > max_nodes_) {
    return Status::InvalidArgument("nodes out of range");
  }
  DMLSCALE_RETURN_NOT_OK(faults.Validate());
  if (!faults.CrashesEnabled()) {
    return Status::InvalidArgument(
        "optimal checkpoint interval needs a crash process; set mtbf_seconds "
        "> 0");
  }
  if (faults.checkpoint_cost_s <= 0.0) {
    return Status::InvalidArgument(
        "optimal checkpoint interval needs a checkpoint price; set "
        "checkpoint_cost_s > 0");
  }
  return YoungDalyInterval(faults.checkpoint_cost_s,
                           faults.mtbf_seconds / static_cast<double>(nodes));
}

Result<int> CapacityPlanner::ReplicasForQps(const ServingLatencyFn& latency_fn,
                                            double qps,
                                            double target_latency_s,
                                            int max_replicas) {
  DMLSCALE_CHECK(latency_fn != nullptr);
  if (qps <= 0.0) return Status::InvalidArgument("qps must be > 0");
  if (target_latency_s <= 0.0) {
    return Status::InvalidArgument("target latency must be > 0");
  }
  if (max_replicas < 1) {
    return Status::InvalidArgument("max_replicas must be >= 1");
  }
  // A point is feasible when the fn returns a value <= target; both
  // "cannot keep up" errors and missed targets count as infeasible.
  auto feasible = [&](int r) {
    Result<double> latency = latency_fn(r, qps);
    return latency.ok() && latency.value() <= target_latency_s;
  };
  // Double until feasible (latency is non-increasing in replicas), then
  // binary-search the boundary.
  int hi = 1;
  while (hi < max_replicas && !feasible(hi)) {
    hi = hi > max_replicas / 2 ? max_replicas : hi * 2;
  }
  if (!feasible(hi)) {
    return Status::NotFound(
        "no replica count within " + std::to_string(max_replicas) +
        " serves " + FormatDouble(qps, 4) + " qps at " +
        FormatDouble(target_latency_s, 4) + " s; raise max_replicas, relax "
        "the latency target, or shed load");
  }
  int lo = hi / 2;  // lo is infeasible (or 0), hi is feasible
  while (hi - lo > 1) {
    int mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

Result<double> CapacityPlanner::MaxSustainableQps(
    const ServingLatencyFn& latency_fn, int replicas, double target_latency_s,
    double qps_cap) {
  DMLSCALE_CHECK(latency_fn != nullptr);
  if (replicas < 1) return Status::InvalidArgument("replicas must be >= 1");
  if (target_latency_s <= 0.0) {
    return Status::InvalidArgument("target latency must be > 0");
  }
  if (qps_cap <= 0.0) return Status::InvalidArgument("qps_cap must be > 0");
  auto feasible = [&](double qps) {
    Result<double> latency = latency_fn(replicas, qps);
    return latency.ok() && latency.value() <= target_latency_s;
  };
  if (feasible(qps_cap)) return qps_cap;
  // Latency at a near-idle trickle is essentially the bare service time; if
  // even that misses the target no rate can meet it.
  double lo = qps_cap * 1e-9;
  if (!feasible(lo)) {
    return Status::NotFound(
        "even near-zero load misses the " + FormatDouble(target_latency_s, 4) +
        " s target at " + std::to_string(replicas) +
        " replicas; the bare service time is too slow — use a faster model "
        "or relax the target");
  }
  double hi = qps_cap;
  // Fixed iteration count: deterministic for any backing latency_fn.
  for (int i = 0; i < 64; ++i) {
    double mid = 0.5 * (lo + hi);
    if (feasible(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int CapacityPlanner::OptimalNodes() const {
  int best = 1;
  double best_time = time_fn_(1, 1.0);
  for (int n = 2; n <= max_nodes_; ++n) {
    double t = time_fn_(n, 1.0);
    if (t < best_time) {
      best_time = t;
      best = n;
    }
  }
  return best;
}

}  // namespace dmlscale::core
