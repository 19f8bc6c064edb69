#include "sim/overhead.h"

#include <cmath>
#include <string>

namespace dmlscale::sim {

Status CheckFiniteNonNegative(std::string_view field, double value, int n) {
  if (std::isfinite(value) && value >= 0.0) return Status::OK();
  std::string message = std::string(field) + " must be finite and >= 0, got " +
                        std::to_string(value);
  if (n > 0) message += " at n=" + std::to_string(n);
  return Status::InvalidArgument(message);
}

Status OverheadModel::Validate() const {
  DMLSCALE_RETURN_NOT_OK(
      CheckFiniteNonNegative("overhead.sched_fixed_s", sched_fixed_s));
  DMLSCALE_RETURN_NOT_OK(CheckFiniteNonNegative("overhead.sched_per_worker_s",
                                                sched_per_worker_s));
  DMLSCALE_RETURN_NOT_OK(CheckFiniteNonNegative("overhead.serialize_s_per_bit",
                                                serialize_s_per_bit));
  return CheckFiniteNonNegative("overhead.straggler_sigma", straggler_sigma);
}

}  // namespace dmlscale::sim
