#include "core/validation.h"

#include <cmath>

namespace dmlscale::core {

namespace {
Status CheckSizes(const std::vector<double>& predicted,
                  const std::vector<double>& actual) {
  if (predicted.size() != actual.size()) {
    return Status::InvalidArgument("size mismatch: " +
                                   std::to_string(predicted.size()) + " vs " +
                                   std::to_string(actual.size()));
  }
  if (predicted.empty()) return Status::InvalidArgument("empty series");
  return Status::OK();
}
}  // namespace

Result<double> Mape(const std::vector<double>& predicted,
                    const std::vector<double>& actual) {
  DMLSCALE_RETURN_NOT_OK(CheckSizes(predicted, actual));
  double acc = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == 0.0) {
      return Status::InvalidArgument("actual value is zero at index " +
                                     std::to_string(i));
    }
    acc += std::fabs((predicted[i] - actual[i]) / actual[i]);
  }
  return 100.0 * acc / static_cast<double>(actual.size());
}

Result<double> Mae(const std::vector<double>& predicted,
                   const std::vector<double>& actual) {
  DMLSCALE_RETURN_NOT_OK(CheckSizes(predicted, actual));
  double acc = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    acc += std::fabs(predicted[i] - actual[i]);
  }
  return acc / static_cast<double>(actual.size());
}

Result<double> Rmse(const std::vector<double>& predicted,
                    const std::vector<double>& actual) {
  DMLSCALE_RETURN_NOT_OK(CheckSizes(predicted, actual));
  double acc = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    double d = predicted[i] - actual[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(actual.size()));
}

Result<ValidationReport> CompareCurves(const SpeedupCurve& model,
                                       const SpeedupCurve& measured) {
  std::vector<double> predicted;
  std::vector<double> actual;
  for (size_t i = 0; i < measured.nodes.size(); ++i) {
    DMLSCALE_ASSIGN_OR_RETURN(double m, model.At(measured.nodes[i]));
    predicted.push_back(m);
    actual.push_back(measured.speedup[i]);
  }
  ValidationReport report;
  DMLSCALE_ASSIGN_OR_RETURN(report.mape, Mape(predicted, actual));
  DMLSCALE_ASSIGN_OR_RETURN(report.mae, Mae(predicted, actual));
  DMLSCALE_ASSIGN_OR_RETURN(report.rmse, Rmse(predicted, actual));
  report.num_points = static_cast<int>(predicted.size());
  return report;
}

}  // namespace dmlscale::core
