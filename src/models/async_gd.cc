#include "models/async_gd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dmlscale::models {

AsyncGdModel::AsyncGdModel(GdWorkload workload, core::NodeSpec node,
                           core::LinkSpec worker_link,
                           core::LinkSpec server_link)
    : workload_(workload),
      node_(node),
      worker_link_(worker_link),
      server_link_(server_link) {
  DMLSCALE_CHECK_MSG(workload.Validate().ok(), "invalid GdWorkload");
  DMLSCALE_CHECK_MSG(node.Validate().ok(), "invalid NodeSpec");
  DMLSCALE_CHECK_MSG(worker_link.Validate().ok(), "invalid worker link");
  if (server_link_.bandwidth_bps <= 0.0) server_link_ = worker_link;
}

double AsyncGdModel::WorkerCycleSeconds() const {
  double compute = workload_.ops_per_example * workload_.batch_size /
                   node_.EffectiveFlops();
  double transfer = 2.0 * workload_.MessageBits() /
                        worker_link_.bandwidth_bps +
                    2.0 * worker_link_.latency_s;
  return compute + transfer;
}

double AsyncGdModel::ThroughputUpdatesPerSec(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  double offered = static_cast<double>(n) / WorkerCycleSeconds();
  double ceiling =
      server_link_.bandwidth_bps / (2.0 * workload_.MessageBits());
  return std::min(offered, ceiling);
}

double AsyncGdModel::ThroughputSpeedup(int n) const {
  return ThroughputUpdatesPerSec(n) / ThroughputUpdatesPerSec(1);
}

int AsyncGdModel::SaturationWorkers() const {
  double ceiling =
      server_link_.bandwidth_bps / (2.0 * workload_.MessageBits());
  return std::max(
      1, static_cast<int>(std::ceil(ceiling * WorkerCycleSeconds())));
}

double AsyncGdModel::ExpectedStaleness(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  // In steady state every worker completes once per cycle (queueing at a
  // saturated server stretches all cycles equally), so between a worker's
  // read and its write the other n - 1 workers land one update each.
  return static_cast<double>(n - 1);
}

double ConvergenceModel::SyncIterations(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  return base_iterations *
         std::pow(static_cast<double>(n), batch_penalty_alpha - 1.0);
}

double ConvergenceModel::AsyncIterations(double staleness) const {
  DMLSCALE_CHECK_GE(staleness, 0.0);
  return base_iterations * (1.0 + staleness_penalty * staleness);
}

double SyncTimeToAccuracy(const ConvergenceModel& convergence,
                          const WeakScalingSgdModel& sync_model, int n) {
  // WeakScalingSgdModel::Seconds is per-instance; one iteration processes
  // n * S instances and takes Seconds(n) * n.
  double per_iteration = sync_model.Seconds(n) * static_cast<double>(n);
  return convergence.SyncIterations(n) * per_iteration;
}

double AsyncTimeToAccuracy(const ConvergenceModel& convergence,
                           const AsyncGdModel& async_model, int n) {
  double iterations =
      convergence.AsyncIterations(async_model.ExpectedStaleness(n));
  return iterations / async_model.ThroughputUpdatesPerSec(n);
}

}  // namespace dmlscale::models
