#ifndef DMLSCALE_CORE_SCALING_H_
#define DMLSCALE_CORE_SCALING_H_

#include <functional>

#include "common/status.h"
#include "core/speedup.h"

namespace dmlscale::core {

/// A family of algorithm time models parameterized by the input scale
/// (Section III): `Time(n, data_scale)` is the time on `n` nodes when the
/// input size is `data_scale` times the baseline `D`. Strong scaling keeps
/// `data_scale` at 1: its speedup is `SpeedupAnalyzer::Compute` over
/// `t(n, 1)`.
using ScalableTimeFn = std::function<double(int n, double data_scale)>;

/// Weak scaling: the input grows proportionally with the node count
/// (Section III), so with `n` nodes the input is `n * D`.
class WeakScalingStudy {
 public:
  explicit WeakScalingStudy(ScalableTimeFn time_fn);

  /// Gustafson-style scaled speedup: `n * t(1,1) / t(n,n)` — how much more
  /// work completes per unit time with n nodes on an n-times larger input.
  [[nodiscard]] Result<SpeedupCurve> ScaledSpeedup(int max_nodes) const;

 private:
  ScalableTimeFn time_fn_;
};

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_SCALING_H_
