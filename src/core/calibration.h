#ifndef DMLSCALE_CORE_CALIBRATION_H_
#define DMLSCALE_CORE_CALIBRATION_H_

#include <functional>
#include <vector>

#include "common/status.h"

namespace dmlscale::core {

/// "Incorporating a feedback loop from experiments" (Section VI): fit a
/// small number of scale coefficients of an analytical model to measured
/// (n, seconds) samples, without giving up the model's structure.
///
/// The model is expressed as a linear combination of basis terms:
///   t(n) = sum_k theta_k * basis_k(n)
/// e.g. basis_0(n) = c(D)/(F n) (the uncalibrated computation term) and
/// basis_1(n) = fcm(M, n). Coefficients near 1 mean the a-priori model was
/// already accurate; a computation coefficient of 1.25 means the machine
/// reaches only 80% of the assumed effective FLOPS. `api::Calibrate` fits a
/// scenario's compute and comm terms this way and applies the coefficients
/// with `Scenario::Calibrated`.

/// One measured sample.
struct TimingSample {
  int nodes = 0;
  double seconds = 0.0;
};

/// Result of a calibration fit.
struct CalibrationResult {
  /// Fitted theta, one per basis term.
  std::vector<double> coefficients;
  /// Root-mean-square residual of the fit, seconds.
  double rmse = 0.0;
  /// R^2 goodness of fit (1 = perfect; can be negative for awful fits).
  double r_squared = 0.0;
};

/// Ordinary least squares for `t(n) = sum_k theta_k basis_k(n)`.
/// Requires at least as many samples as basis terms, at least as many
/// DISTINCT node counts as basis terms, finite sample times and basis
/// values, and a non-singular normal matrix (fails with FailedPrecondition
/// otherwise). A successful fit can still report a negative `r_squared`
/// when the basis cannot track the samples — treat that as "do not trust
/// this model", not as an error.
[[nodiscard]] Result<CalibrationResult> FitLinearModel(
    const std::vector<std::function<double(int)>>& basis,
    const std::vector<TimingSample>& samples);

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_CALIBRATION_H_
