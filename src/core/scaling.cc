#include "core/scaling.h"

#include "common/check.h"

namespace dmlscale::core {

WeakScalingStudy::WeakScalingStudy(ScalableTimeFn time_fn)
    : time_fn_(std::move(time_fn)) {
  DMLSCALE_CHECK(time_fn_ != nullptr);
}

Result<SpeedupCurve> WeakScalingStudy::ScaledSpeedup(int max_nodes) const {
  if (max_nodes < 1) return Status::InvalidArgument("max_nodes must be >= 1");
  double t1 = time_fn_(1, 1.0);
  if (t1 <= 0.0) {
    return Status::FailedPrecondition("t(1,1) must be positive");
  }
  SpeedupCurve curve;
  curve.reference_n = 1;
  for (int n = 1; n <= max_nodes; ++n) {
    double tn = time_fn_(n, static_cast<double>(n));
    if (tn <= 0.0) {
      return Status::FailedPrecondition("t(n,n) must be positive at n=" +
                                        std::to_string(n));
    }
    curve.nodes.push_back(n);
    curve.speedup.push_back(static_cast<double>(n) * t1 / tn);
  }
  return curve;
}

}  // namespace dmlscale::core
