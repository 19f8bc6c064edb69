#include "serve/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dmlscale::serve {

const char* ToString(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kLeastOutstanding:
      return "least-outstanding";
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

Status ServingSpec::Validate() const {
  DMLSCALE_RETURN_NOT_OK(arrivals.Validate());
  DMLSCALE_RETURN_NOT_OK(batcher.Validate());
  DMLSCALE_RETURN_NOT_OK(replica.Validate());
  DMLSCALE_RETURN_NOT_OK(cache.Validate());
  if (replicas < 1) {
    return Status::InvalidArgument("replicas must be >= 1");
  }
  if (!(quantile > 0.0 && quantile < 1.0)) {
    return Status::InvalidArgument(
        "planning quantile must be in (0, 1), e.g. 0.99 for p99");
  }
  if (!std::isfinite(target_latency_s) || target_latency_s < 0.0) {
    return Status::InvalidArgument(
        "serving target_latency must be finite and >= 0 s");
  }
  if (!std::isfinite(target_qps) || target_qps < 0.0) {
    return Status::InvalidArgument(
        "serving target_qps must be finite and >= 0");
  }
  if (target_qps > 0.0 && target_latency_s == 0.0) {
    return Status::InvalidArgument(
        "target_qps asks the replica-planning question, which also needs "
        "target_latency_s (the SLO to plan for)");
  }
  if (max_replicas < 1) {
    return Status::InvalidArgument("max_replicas must be >= 1");
  }
  return Status::OK();
}

double ServingEstimate::LatencyQuantile(double p) const {
  DMLSCALE_CHECK_GT(p, 0.0);
  DMLSCALE_CHECK_LT(p, 1.0);
  if (p <= hit_rate) return hit_latency_s;
  // Renormalize into the miss population.
  double backend_p = (p - hit_rate) / (1.0 - hit_rate);
  // Guard the open interval for SojournQuantile.
  backend_p = std::min(backend_p, 1.0 - 1e-12);
  return batch_delay_s + queue.SojournQuantile(backend_p);
}

Result<ServingEstimate> AnalyzeServing(const ServingSpec& spec) {
  DMLSCALE_RETURN_NOT_OK(spec.Validate());

  ServingEstimate estimate;
  estimate.offered_qps = spec.arrivals.rate_qps;
  estimate.hit_rate = spec.cache.Enabled() ? spec.cache.hit_rate : 0.0;
  estimate.hit_latency_s =
      spec.cache.Enabled() ? spec.cache.hit_latency_s : 0.0;
  estimate.backend_qps = estimate.offered_qps * spec.cache.MissRate();
  estimate.per_replica_qps =
      estimate.backend_qps / static_cast<double>(spec.replicas);

  BatchEstimate batching = EstimateBatching(
      spec.batcher, spec.replica.ShardedService(), estimate.per_replica_qps);
  estimate.expected_batch = batching.batch;
  estimate.batch_delay_s = batching.added_delay_s;
  estimate.service_s = batching.service_s;

  DMLSCALE_ASSIGN_OR_RETURN(
      estimate.queue, core::AnalyzeMmk(spec.replicas, estimate.backend_qps,
                                       batching.service_rate));
  estimate.utilization = estimate.queue.utilization;

  double backend_mean = estimate.batch_delay_s + estimate.queue.mean_sojourn_s;
  estimate.mean_latency_s =
      estimate.hit_rate * estimate.hit_latency_s +
      (1.0 - estimate.hit_rate) * backend_mean;
  estimate.quantile_latency_s = estimate.LatencyQuantile(spec.quantile);
  return estimate;
}

Result<double> AnalyticQuantileLatency(const ServingSpec& spec, int replicas,
                                       double qps) {
  if (replicas < 1) {
    return Status::InvalidArgument("replicas must be >= 1");
  }
  if (qps <= 0.0) return Status::InvalidArgument("qps must be > 0");
  ServingSpec point = spec;
  point.replicas = replicas;
  point.arrivals.rate_qps = qps;
  DMLSCALE_ASSIGN_OR_RETURN(ServingEstimate estimate, AnalyzeServing(point));
  return estimate.quantile_latency_s;
}

double SaturationQps(const ServingSpec& spec, int replicas) {
  DMLSCALE_CHECK_GE(replicas, 1);
  // Throughput per replica is bounded by the per-item-limited rate
  // 1 / per_item (batching amortizes the fixed cost toward, never past,
  // it); the cache multiplies sustainable offered load by 1 / miss_rate.
  double per_item_s = spec.replica.ShardedService().per_item_s;
  return static_cast<double>(replicas) / per_item_s / spec.cache.MissRate();
}

}  // namespace dmlscale::serve
