#ifndef DMLSCALE_MODELS_ASYNC_GD_H_
#define DMLSCALE_MODELS_ASYNC_GD_H_

#include <string>

#include "core/hardware.h"
#include "models/gradient_descent.h"

namespace dmlscale::models {

/// Asynchronous (parameter-server) gradient descent — the Section VI
/// future-work model. Workers compute gradients on local mini-batches and
/// exchange updates with a parameter server without a synchronization
/// barrier, as in Downpour/Hogwild-style systems.
///
/// Modeled quantities:
///   - per-worker cycle time: gradient compute + push + pull
///     t_worker = (C * S)/F + 2 * (bits * W) / B_worker
///   - offered throughput: n / t_worker gradient updates per second
///   - server ceiling: the server NIC moves 2 * bits * W per update, so it
///     sustains at most B_server / (2 * bits * W) updates per second
///   - achieved throughput: min(offered, ceiling)
/// Without a barrier there is no straggler term; the cost is staleness:
/// between a worker's read and its write the other n - 1 workers each land
/// one update in steady state, so expected staleness is n - 1 whether or
/// not the server is saturated (saturation stretches all cycles equally).
class AsyncGdModel {
 public:
  /// `server_link` defaults to the worker link when bandwidth is 0.
  AsyncGdModel(GdWorkload workload, core::NodeSpec node,
               core::LinkSpec worker_link, core::LinkSpec server_link = {});

  /// Seconds for one worker to complete one update cycle (independent of
  /// n — no barrier).
  double WorkerCycleSeconds() const;

  /// Gradient updates per second with `n` workers.
  double ThroughputUpdatesPerSec(int n) const;

  /// Throughput speedup over one worker (the async analogue of s(n)).
  double ThroughputSpeedup(int n) const;

  /// The worker count at which the server NIC saturates; adding workers
  /// beyond this adds staleness but no throughput.
  int SaturationWorkers() const;

  /// Expected gradient staleness with `n` workers (Section VI trade-off).
  double ExpectedStaleness(int n) const;

  std::string name() const { return "gradient-descent-async"; }

 private:
  GdWorkload workload_;
  core::NodeSpec node_;
  core::LinkSpec worker_link_;
  core::LinkSpec server_link_;
};

/// Time-to-accuracy composition for the parallelization-convergence
/// trade-off (Section VI): parallelism buys throughput but costs extra
/// iterations — synchronous large-batch training needs more epochs, and
/// asynchronous training pays per unit staleness.
struct ConvergenceModel {
  /// Iterations to reach the target accuracy at the baseline (n = 1).
  double base_iterations = 1000.0;
  /// Synchronous large-batch penalty exponent, alpha in [0, 1]. Reaching
  /// the target needs `N0 * n^alpha` training instances when the
  /// effective batch is `n` times larger; since each iteration consumes
  /// `n` batches, iterations(n) = base * n^(alpha - 1). alpha = 0 means
  /// perfect statistical efficiency (iterations fall as 1/n); alpha = 1
  /// means larger batches bring no convergence benefit at all.
  double batch_penalty_alpha = 0.5;
  /// Asynchronous penalty per unit of expected staleness:
  /// iterations *= (1 + staleness_penalty * staleness).
  double staleness_penalty = 0.01;

  /// Iterations for synchronous data parallelism with per-worker batch
  /// fixed (effective batch = n * base): base * n^(alpha - 1).
  double SyncIterations(int n) const;

  /// Iterations for asynchronous training at the given staleness.
  double AsyncIterations(double staleness) const;
};

/// Wall-clock time to the accuracy target for synchronous weak-scaling
/// SGD: iterations(n) * per-iteration time of `sync_model`.
double SyncTimeToAccuracy(const ConvergenceModel& convergence,
                          const WeakScalingSgdModel& sync_model, int n);

/// Wall-clock time to the accuracy target for the async model:
/// iterations(staleness(n)) / throughput(n).
double AsyncTimeToAccuracy(const ConvergenceModel& convergence,
                           const AsyncGdModel& async_model, int n);

}  // namespace dmlscale::models

#endif  // DMLSCALE_MODELS_ASYNC_GD_H_
