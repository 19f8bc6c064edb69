#include "core/calibration.h"

#include <cmath>
#include <set>

namespace dmlscale::core {

namespace {

/// Solves the k x k system A x = b by Gaussian elimination with partial
/// pivoting. Returns false when singular.
bool SolveLinearSystem(std::vector<std::vector<double>>* a,
                       std::vector<double>* b, std::vector<double>* x) {
  size_t k = b->size();
  for (size_t col = 0; col < k; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < k; ++row) {
      if (std::fabs((*a)[row][col]) > std::fabs((*a)[pivot][col])) {
        pivot = row;
      }
    }
    if (std::fabs((*a)[pivot][col]) < 1e-12) return false;
    std::swap((*a)[col], (*a)[pivot]);
    std::swap((*b)[col], (*b)[pivot]);
    for (size_t row = col + 1; row < k; ++row) {
      double factor = (*a)[row][col] / (*a)[col][col];
      for (size_t c2 = col; c2 < k; ++c2) {
        (*a)[row][c2] -= factor * (*a)[col][c2];
      }
      (*b)[row] -= factor * (*b)[col];
    }
  }
  x->assign(k, 0.0);
  for (size_t row = k; row-- > 0;) {
    double acc = (*b)[row];
    for (size_t c2 = row + 1; c2 < k; ++c2) {
      acc -= (*a)[row][c2] * (*x)[c2];
    }
    (*x)[row] = acc / (*a)[row][row];
  }
  return true;
}

}  // namespace

Result<CalibrationResult> FitLinearModel(
    const std::vector<std::function<double(int)>>& basis,
    const std::vector<TimingSample>& samples) {
  if (basis.empty()) return Status::InvalidArgument("empty basis");
  if (samples.size() < basis.size()) {
    return Status::InvalidArgument("need at least as many samples as terms");
  }
  for (const auto& sample : samples) {
    if (sample.nodes < 1) return Status::InvalidArgument("nodes must be >= 1");
    if (!std::isfinite(sample.seconds)) {
      // A NaN sneaks past a `<= 0` test (every comparison with NaN is
      // false) and would silently poison the whole normal matrix.
      return Status::FailedPrecondition(
          "non-finite sample time at n=" + std::to_string(sample.nodes) +
          "; drop failed/overflowed measurements before fitting");
    }
    if (sample.seconds <= 0.0) {
      return Status::InvalidArgument("seconds must be positive");
    }
  }
  // `samples.size() >= k` is not enough: five samples at the same node count
  // carry one equation's worth of information and make the normal matrix
  // singular (or, with rounding, near-singular garbage).
  std::set<int> distinct_nodes;
  for (const auto& sample : samples) distinct_nodes.insert(sample.nodes);
  if (distinct_nodes.size() < basis.size()) {
    return Status::FailedPrecondition(
        "node schedule has only " + std::to_string(distinct_nodes.size()) +
        " distinct node count(s) for " + std::to_string(basis.size()) +
        " basis terms; measure at least as many distinct node counts as "
        "coefficients");
  }

  size_t k = basis.size();
  // Normal equations: (X^T X) theta = X^T y.
  std::vector<std::vector<double>> xtx(k, std::vector<double>(k, 0.0));
  std::vector<double> xty(k, 0.0);
  for (const auto& sample : samples) {
    std::vector<double> row(k);
    for (size_t j = 0; j < k; ++j) {
      row[j] = basis[j](sample.nodes);
      if (!std::isfinite(row[j])) {
        return Status::FailedPrecondition(
            "basis term " + std::to_string(j) + " is non-finite at n=" +
            std::to_string(sample.nodes));
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) xtx[i][j] += row[i] * row[j];
      xty[i] += row[i] * sample.seconds;
    }
  }

  CalibrationResult result;
  if (!SolveLinearSystem(&xtx, &xty, &result.coefficients)) {
    return Status::FailedPrecondition(
        "singular normal matrix: basis terms are collinear on the samples");
  }

  double ss_res = 0.0, ss_tot = 0.0, mean = 0.0;
  for (const auto& sample : samples) mean += sample.seconds;
  mean /= static_cast<double>(samples.size());
  for (const auto& sample : samples) {
    double predicted = 0.0;
    for (size_t j = 0; j < k; ++j) {
      predicted += result.coefficients[j] * basis[j](sample.nodes);
    }
    ss_res += (sample.seconds - predicted) * (sample.seconds - predicted);
    ss_tot += (sample.seconds - mean) * (sample.seconds - mean);
  }
  result.rmse = std::sqrt(ss_res / static_cast<double>(samples.size()));
  result.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return result;
}

}  // namespace dmlscale::core
