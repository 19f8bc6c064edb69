#include "sim/workloads.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/collectives.h"

namespace dmlscale::sim {

Status GdSimConfig::Validate() const {
  if (!std::isfinite(total_ops) || total_ops <= 0.0) {
    return Status::InvalidArgument("total_ops must be finite and > 0");
  }
  DMLSCALE_RETURN_NOT_OK(CheckFiniteNonNegative("message_bits", message_bits));
  DMLSCALE_RETURN_NOT_OK(node.Validate());
  DMLSCALE_RETURN_NOT_OK(link.Validate());
  DMLSCALE_RETURN_NOT_OK(overhead.Validate());
  if (iterations < 1) return Status::InvalidArgument("iterations must be >= 1");
  return Status::OK();
}

namespace {

/// Per-worker compute finish times given a common start and equal shares.
std::vector<double> ComputeFinishTimes(double start, double share_seconds,
                                       int n, const OverheadModel& overhead,
                                       Pcg32* rng) {
  std::vector<double> finish(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    finish[static_cast<size_t>(i)] =
        start + share_seconds * overhead.SampleJitter(rng);
  }
  return finish;
}

}  // namespace

Result<double> SimulateSparkGdIteration(const GdSimConfig& config, int n,
                                        Pcg32* rng) {
  DMLSCALE_RETURN_NOT_OK(config.Validate());
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  double share = config.total_ops /
                 (config.node.EffectiveFlops() * static_cast<double>(n));
  double total = 0.0;
  for (int it = 0; it < config.iterations; ++it) {
    double t0 = config.overhead.SchedulingSeconds(n);
    DMLSCALE_ASSIGN_OR_RETURN(
        double bcast_done,
        SimulateTorrentBroadcast(n, t0, config.message_bits, config.link,
                                 config.overhead));
    std::vector<double> ready =
        ComputeFinishTimes(bcast_done, share, n, config.overhead, rng);
    DMLSCALE_ASSIGN_OR_RETURN(
        double done, SimulateTwoWaveReduce(ready, config.message_bits,
                                           config.link, config.overhead));
    total += done;
  }
  return total / static_cast<double>(config.iterations);
}

Result<double> SimulateAllReduceSgdIteration(const GdSimConfig& config, int n,
                                             Pcg32* rng) {
  DMLSCALE_RETURN_NOT_OK(config.Validate());
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  // Weak scaling: total_ops is per worker; the share does not shrink.
  double share = config.total_ops / config.node.EffectiveFlops();
  double total = 0.0;
  for (int it = 0; it < config.iterations; ++it) {
    double t0 = config.overhead.SchedulingSeconds(n);
    std::vector<double> ready =
        ComputeFinishTimes(t0, share, n, config.overhead, rng);
    DMLSCALE_ASSIGN_OR_RETURN(
        double reduced, SimulateTreeReduce(ready, config.message_bits,
                                           config.link, config.overhead));
    DMLSCALE_ASSIGN_OR_RETURN(
        double done,
        SimulateTreeBroadcast(n, reduced, config.message_bits, config.link,
                              config.overhead));
    total += done;
  }
  return total / static_cast<double>(config.iterations);
}

Status BpSimConfig::Validate() const {
  if (edges_per_worker.empty()) {
    return Status::InvalidArgument("edges_per_worker must not be empty");
  }
  for (double e : edges_per_worker) {
    if (e < 0.0) return Status::InvalidArgument("negative edge count");
  }
  if (ops_per_edge <= 0.0) {
    return Status::InvalidArgument("ops_per_edge must be > 0");
  }
  DMLSCALE_RETURN_NOT_OK(node.Validate());
  if (supersteps < 1) return Status::InvalidArgument("supersteps must be >= 1");
  return Status::OK();
}

Result<double> SimulateBpSuperstep(const BpSimConfig& config, Pcg32* rng) {
  DMLSCALE_RETURN_NOT_OK(config.Validate());
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  int n = static_cast<int>(config.edges_per_worker.size());
  double flops = config.node.EffectiveFlops();
  double total = 0.0;
  for (int step = 0; step < config.supersteps; ++step) {
    double slowest = 0.0;
    for (double edges : config.edges_per_worker) {
      double seconds = edges * config.ops_per_edge / flops *
                       config.overhead.SampleJitter(rng);
      slowest = std::max(slowest, seconds);
    }
    total += slowest + config.overhead.SchedulingSeconds(n);
  }
  return total / static_cast<double>(config.supersteps);
}

Status SuperstepSimConfig::Validate() const {
  DMLSCALE_RETURN_NOT_OK(CheckFiniteNonNegative("message_bits", message_bits));
  DMLSCALE_RETURN_NOT_OK(overhead.Validate());
  if (supersteps < 1) return Status::InvalidArgument("supersteps must be >= 1");
  return Status::OK();
}

Result<double> SimulateGenericSuperstep(const SuperstepSimConfig& config,
                                        int n, double compute_seconds,
                                        double comm_seconds, Pcg32* rng) {
  DMLSCALE_RETURN_NOT_OK(config.Validate());
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  DMLSCALE_RETURN_NOT_OK(
      CheckFiniteNonNegative("compute_seconds", compute_seconds, n));
  DMLSCALE_RETURN_NOT_OK(
      CheckFiniteNonNegative("comm_seconds", comm_seconds, n));

  const double serialize =
      config.overhead.serialize_s_per_bit * config.message_bits;
  const double start = config.overhead.SchedulingSeconds(n);
  const double sigma = config.overhead.straggler_sigma;
  // Workers never communicate inside a superstep, so no event queue is
  // needed. The barrier waits for the slowest of n iid jittered workers,
  // start + compute_seconds * exp(sigma * z). That is non-decreasing in z,
  // so it is the finish time of the largest of the n standard-normal draws,
  // which NextMaxGaussian takes exactly and in the same draw order as one
  // NextGaussian per worker. With compute_seconds = 0 every worker finishes
  // at start, even where exp(sigma * z) overflows (0 * inf would be NaN).
  double total = 0.0;
  for (int step = 0; step < config.supersteps; ++step) {
    double barrier = start + compute_seconds;
    if (sigma > 0.0) {
      const double z = rng->NextMaxGaussian(n);
      barrier = compute_seconds == 0.0
                    ? start
                    : start + compute_seconds * std::exp(sigma * z);
    }
    total += barrier + comm_seconds + serialize;
  }
  const double mean = total / static_cast<double>(config.supersteps);
  // Finite inputs can still overflow, e.g. through a huge straggler draw.
  DMLSCALE_RETURN_NOT_OK(
      CheckFiniteNonNegative("mean superstep seconds", mean, n));
  return mean;
}

}  // namespace dmlscale::sim
