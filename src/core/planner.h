#ifndef DMLSCALE_CORE_PLANNER_H_
#define DMLSCALE_CORE_PLANNER_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "core/faults.h"
#include "core/scaling.h"

namespace dmlscale::core {

/// Latency (seconds, at the caller's planning quantile — typically p99) of
/// `replicas` replicas serving `qps` requests/s. Returns InvalidArgument
/// when that replica count cannot keep up at that rate (utilization >= 1),
/// which the serving planners treat as "infeasible point", not a hard
/// error. Backed analytically (Erlang-C over serve::AnalyzeServing) or by
/// the serving DES — the planner does not care which.
using ServingLatencyFn =
    std::function<Result<double>(int replicas, double qps)>;

/// Answers the two practitioner questions from the paper's introduction:
///
///  (1) Given a workload, how many more machines are needed to decrease the
///      run time by a certain amount? (strong scaling)
///  (2) Given an increasing workload, how many more machines are needed to
///      keep the run time the same? (weak scaling)
class CapacityPlanner {
 public:
  /// `time_fn(n, data_scale)` as in ScalableTimeFn; `max_nodes` bounds the
  /// search.
  CapacityPlanner(ScalableTimeFn time_fn, int max_nodes);

  /// Question 1: smallest `n >= current_nodes` whose time is
  /// <= `t(current_nodes) / factor`. The question asks how many MORE
  /// machines are needed, so the scan starts at `current_nodes` — on a curve
  /// that is flat below the current size it answers `current_nodes`, never a
  /// smaller cluster. Fails with NotFound when no n within max_nodes
  /// achieves the target (e.g. past the communication-bound peak).
  [[nodiscard]] Result<int> NodesToSpeedUp(int current_nodes,
                                           double factor) const;

  /// Smallest `n >= min_nodes` with `t(n) <= target_seconds`; NotFound when
  /// impossible within max_nodes.
  [[nodiscard]] Result<int> NodesForTargetTime(double target_seconds,
                                               int min_nodes = 1) const;

  /// Question 2: smallest `n` such that the time on the `growth`-times
  /// larger input is <= the current time on `current_nodes`. NotFound when
  /// even max_nodes cannot absorb the growth.
  [[nodiscard]] Result<int> NodesForWorkloadGrowth(int current_nodes,
                                                   double growth) const;

  /// The node count with the minimum absolute run time (the speedup peak).
  int OptimalNodes() const;

  /// Failure-aware Question 3: smallest `n >= min_nodes` whose EXPECTED run
  /// time under `faults` — core::ExpectedCompletionSeconds over the
  /// fault-free time t(n) — is <= `target_seconds`. `max_slowdown` is
  /// core::MaxSlowdownTable(faults, m) for some m >= max_nodes. More nodes
  /// cut the fault-free time but raise the system crash rate, so this can
  /// answer "impossible" where the perfect-cluster planner would not. Node
  /// counts whose recovery cannot keep up (replica takeover saturated) are
  /// skipped.
  [[nodiscard]] Result<int> NodesForTargetTimeUnderFaults(
      double target_seconds, const FaultSpec& faults,
      const std::vector<double>& max_slowdown, int min_nodes = 1) const;

  /// Failure-aware Question 4: the Young/Daly optimal checkpoint interval
  /// sqrt(2 * C * mtbf / n) at `nodes` machines. InvalidArgument unless the
  /// spec enables crashes and prices checkpoints (checkpoint_cost_s > 0).
  [[nodiscard]] Result<double> OptimalCheckpointInterval(
      int nodes, const FaultSpec& faults) const;

  /// Serving Question 3a: the smallest replica count in [1, max_replicas]
  /// whose planning-quantile latency at `qps` is <= `target_latency_s`.
  ///
  /// Latency is non-increasing in the replica count at fixed qps (more
  /// servers only shed load), so the search is a doubling scan to the first
  /// feasible count followed by a binary search — O(log max_replicas)
  /// evaluations, cheap enough to back with the DES, not just closed forms.
  /// NotFound when even max_replicas misses the target.
  [[nodiscard]] static Result<int> ReplicasForQps(
      const ServingLatencyFn& latency_fn, double qps, double target_latency_s,
      int max_replicas);

  /// Serving Question 3b: the largest sustainable rate in (0, qps_cap] at
  /// which `replicas` replicas still meet `target_latency_s`, by
  /// fixed-iteration bisection (deterministic; latency is non-decreasing in
  /// qps at a fixed replica count). Returns qps_cap itself when the whole
  /// range is feasible; NotFound when even a near-idle trickle misses the
  /// target (the service time alone exceeds it).
  [[nodiscard]] static Result<double> MaxSustainableQps(
      const ServingLatencyFn& latency_fn, int replicas,
      double target_latency_s, double qps_cap);

 private:
  ScalableTimeFn time_fn_;
  int max_nodes_;
};

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_PLANNER_H_
