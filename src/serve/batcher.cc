#include "serve/batcher.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dmlscale::serve {

Status BatcherSpec::Validate() const {
  if (max_batch < 1) {
    return Status::InvalidArgument("batch_max must be >= 1");
  }
  if (!std::isfinite(max_delay_s) || max_delay_s < 0.0) {
    return Status::InvalidArgument("batch_delay must be finite and >= 0 s");
  }
  return Status::OK();
}

double BatcherSpec::ExpectedBatch(double rate_qps) const {
  DMLSCALE_CHECK_GE(rate_qps, 0.0);
  if (!Batching() || max_delay_s == 0.0) return 1.0;
  return std::min(static_cast<double>(max_batch),
                  1.0 + rate_qps * max_delay_s);
}

double BatcherSpec::ExpectedDelay(double rate_qps) const {
  DMLSCALE_CHECK_GE(rate_qps, 0.0);
  double batch = ExpectedBatch(rate_qps);
  if (batch <= 1.0 || rate_qps <= 0.0) return 0.0;
  return std::min((batch - 1.0) / (2.0 * rate_qps), max_delay_s / 2.0);
}

BatchEstimate EstimateBatching(const BatcherSpec& spec,
                               const core::BatchServiceModel& model,
                               double rate_qps) {
  DMLSCALE_CHECK(spec.Validate().ok());
  DMLSCALE_CHECK(model.Validate().ok());
  BatchEstimate estimate;
  estimate.batch = spec.ExpectedBatch(rate_qps);
  // Continuous extension of Latency(b): requests in the average batch
  // share its fixed cost.
  double batch_latency_s =
      model.fixed_s + estimate.batch * model.per_item_s;
  estimate.service_s = batch_latency_s / estimate.batch;
  estimate.service_rate = 1.0 / estimate.service_s;
  estimate.added_delay_s = spec.ExpectedDelay(rate_qps);
  return estimate;
}

}  // namespace dmlscale::serve
