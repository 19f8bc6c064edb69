#include "core/speedup.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dmlscale::core {

int SpeedupCurve::OptimalNodes() const {
  DMLSCALE_CHECK(!nodes.empty());
  // Positions found in speedup[] index into nodes[]; a partially filled
  // curve must fail here, not read past the shorter vector.
  DMLSCALE_CHECK_EQ(nodes.size(), speedup.size());
  size_t best = 0;
  for (size_t i = 1; i < speedup.size(); ++i) {
    if (speedup[i] > speedup[best]) best = i;
  }
  return nodes[best];
}

int SpeedupCurve::FirstLocalPeak() const {
  DMLSCALE_CHECK(!nodes.empty());
  DMLSCALE_CHECK_EQ(nodes.size(), speedup.size());
  for (size_t i = 1; i + 1 < speedup.size(); ++i) {
    if (speedup[i] > speedup[i - 1] && speedup[i] > speedup[i + 1]) {
      return nodes[i];
    }
  }
  return OptimalNodes();
}

double SpeedupCurve::PeakSpeedup() const {
  DMLSCALE_CHECK(!speedup.empty());
  return *std::max_element(speedup.begin(), speedup.end());
}

bool SpeedupCurve::IsScalable() const {
  return std::any_of(speedup.begin(), speedup.end(),
                     [](double s) { return s > 1.0; });
}

std::vector<double> SpeedupCurve::Efficiency() const {
  DMLSCALE_CHECK_EQ(nodes.size(), speedup.size());
  std::vector<double> eff(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    eff[i] = speedup[i] * static_cast<double>(reference_n) /
             static_cast<double>(nodes[i]);
  }
  return eff;
}

Result<double> SpeedupCurve::At(int n) const {
  DMLSCALE_CHECK_EQ(nodes.size(), speedup.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] == n) return speedup[i];
  }
  return Status::NotFound("no speedup sample at n=" + std::to_string(n));
}

Result<SpeedupCurve> SpeedupAnalyzer::Compute(const AlgorithmModel& model,
                                              int max_nodes, int reference_n) {
  if (max_nodes < 1) {
    return Status::InvalidArgument("max_nodes must be >= 1");
  }
  std::vector<int> nodes(static_cast<size_t>(max_nodes));
  for (int i = 0; i < max_nodes; ++i) nodes[static_cast<size_t>(i)] = i + 1;
  return ComputeAt(model, nodes, reference_n);
}

Result<SpeedupCurve> SpeedupAnalyzer::ComputeAt(const AlgorithmModel& model,
                                                const std::vector<int>& nodes,
                                                int reference_n) {
  if (nodes.empty()) return Status::InvalidArgument("empty node list");
  for (int n : nodes) {
    if (n < 1) return Status::InvalidArgument("node counts must be >= 1");
  }
  if (reference_n < 1) {
    return Status::InvalidArgument("reference_n must be >= 1");
  }
  double t_ref = model.Seconds(reference_n);
  if (!std::isfinite(t_ref) || t_ref <= 0.0) {
    return Status::FailedPrecondition(
        "reference time must be positive and finite");
  }
  SpeedupCurve curve;
  curve.nodes = nodes;
  curve.reference_n = reference_n;
  curve.speedup.reserve(nodes.size());
  for (int n : nodes) {
    double t_n = model.Seconds(n);
    if (!std::isfinite(t_n) || t_n <= 0.0) {
      return Status::FailedPrecondition(
          "model time must be positive and finite at n=" + std::to_string(n));
    }
    curve.speedup.push_back(t_ref / t_n);
  }
  return curve;
}

}  // namespace dmlscale::core
