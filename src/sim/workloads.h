#ifndef DMLSCALE_SIM_WORKLOADS_H_
#define DMLSCALE_SIM_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/hardware.h"
#include "sim/overhead.h"

namespace dmlscale::sim {

/// Simulated distributed-training workloads. These produce the "measured"
/// (experimental) data points of the paper's figures on a single machine:
/// the simulator executes the same superstep structure as the real systems
/// at finer granularity (per-message sequencing, stragglers, scheduling
/// overhead) than the closed-form models.

/// Configuration of a simulated data-parallel gradient-descent job.
struct GdSimConfig {
  /// Total gradient work per iteration, multiply-adds (`C * S`).
  double total_ops = 0.0;
  /// Parameter payload in bits (`bits_per_param * W`).
  double message_bits = 0.0;
  core::NodeSpec node;
  core::LinkSpec link;
  OverheadModel overhead;
  /// Iterations to average over (straggler jitter makes runs stochastic).
  int iterations = 5;

  /// total_ops must be finite and > 0, message_bits finite and >= 0; the
  /// node, link and overhead must validate.
  Status Validate() const;
};

/// One Spark batch-GD iteration on `n` workers (the Fig. 2 system):
/// scheduling -> torrent broadcast of parameters -> parallel gradient
/// computation (each worker `total_ops / n`, with jitter) -> two-wave
/// aggregation. Returns mean iteration seconds.
Result<double> SimulateSparkGdIteration(const GdSimConfig& config, int n,
                                        Pcg32* rng);

/// One synchronous mini-batch SGD iteration with logarithmic (tree)
/// aggregation + broadcast, fixed work per worker `total_ops` (weak
/// scaling, the Fig. 3 system). Returns mean iteration seconds.
Result<double> SimulateAllReduceSgdIteration(const GdSimConfig& config, int n,
                                             Pcg32* rng);

/// Configuration of a simulated shared-memory BP superstep (Fig. 4).
struct BpSimConfig {
  /// Edge-work per worker (`E_i` for the chosen n), from a real partition
  /// or the Monte-Carlo estimator.
  std::vector<double> edges_per_worker;
  /// Operations per edge update, `c(S)`.
  double ops_per_edge = 0.0;
  core::NodeSpec node;
  OverheadModel overhead;
  int supersteps = 5;

  Status Validate() const;
};

/// One shared-memory BP superstep: each worker processes its edges (with
/// jitter); the superstep ends at the slowest worker plus engine overhead,
/// which grows with the worker count — the effect the paper observes at
/// high core counts in Fig. 4. Returns mean superstep seconds.
Result<double> SimulateBpSuperstep(const BpSimConfig& config, Pcg32* rng);

/// Configuration of a model-agnostic BSP superstep simulation — the
/// discrete-event counterpart of any analytic compute + communication pair
/// (api::Analysis uses it to produce the "measured" series for a Scenario).
/// The two analytic per-superstep times are arguments of
/// SimulateGenericSuperstep, so one config serves every node count.
struct SuperstepSimConfig {
  /// Payload bits per superstep, priced by `overhead.serialize_s_per_bit`
  /// (0 = no serialization cost).
  double message_bits = 0.0;
  /// Every field must be finite and >= 0.
  OverheadModel overhead;
  /// Supersteps to average over (straggler jitter makes runs stochastic).
  int supersteps = 3;

  Status Validate() const;
};

/// Runs `supersteps` BSP supersteps on `n` workers: scheduling overhead,
/// then each worker computes for `compute_seconds` (jittered), the barrier
/// falls at the slowest worker, and the collective completes after
/// `comm_seconds` plus serialization. Both are the analytic per-superstep
/// times at `n`, and both must be finite and >= 0 (the error names the
/// field and n). With OverheadModel::None() the result equals
/// compute_seconds + comm_seconds exactly, so model-vs-sim deltas isolate
/// the framework overheads. Each jittered superstep consumes n Gaussians
/// from `rng`, as one draw per worker would, but takes the slowest with
/// Pcg32::NextMaxGaussian. Returns mean superstep seconds.
Result<double> SimulateGenericSuperstep(const SuperstepSimConfig& config,
                                        int n, double compute_seconds,
                                        double comm_seconds, Pcg32* rng);

}  // namespace dmlscale::sim

#endif  // DMLSCALE_SIM_WORKLOADS_H_
