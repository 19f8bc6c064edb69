#ifndef DMLSCALE_CORE_VALIDATION_H_
#define DMLSCALE_CORE_VALIDATION_H_

#include <vector>

#include "common/status.h"
#include "core/speedup.h"

namespace dmlscale::core {

/// Mean absolute percentage error, in percent, as the paper reports for
/// every validation (13.7% for Fig. 2, 1.2% for Fig. 3, 25.4% for Fig. 4).
/// Fails on size mismatch, empty input, or a zero actual value.
[[nodiscard]] Result<double> Mape(const std::vector<double>& predicted,
                    const std::vector<double>& actual);

/// Mean absolute error.
[[nodiscard]] Result<double> Mae(const std::vector<double>& predicted,
                   const std::vector<double>& actual);

/// Root-mean-square error.
[[nodiscard]] Result<double> Rmse(const std::vector<double>& predicted,
                    const std::vector<double>& actual);

/// Error report comparing a model curve against measured points, aligning
/// on node counts (measured points at node counts absent from the model
/// curve cause a NotFound error).
struct ValidationReport {
  double mape = 0.0;
  double mae = 0.0;
  double rmse = 0.0;
  int num_points = 0;
};

[[nodiscard]] Result<ValidationReport> CompareCurves(const SpeedupCurve& model,
                                       const SpeedupCurve& measured);

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_VALIDATION_H_
