#include "models/gradient_descent.h"

#include <cmath>

#include "common/check.h"
#include "common/units.h"

namespace dmlscale::models {

Status GdWorkload::Validate() const {
  if (!std::isfinite(ops_per_example) || ops_per_example <= 0.0) {
    return Status::InvalidArgument("ops_per_example must be finite and > 0");
  }
  if (!std::isfinite(batch_size) || batch_size <= 0.0) {
    return Status::InvalidArgument("batch_size must be finite and > 0");
  }
  if (!std::isfinite(model_params) || model_params <= 0.0) {
    return Status::InvalidArgument("model_params must be finite and > 0");
  }
  if (bits_per_param != 32.0 && bits_per_param != 64.0) {
    return Status::InvalidArgument("bits_per_param must be 32 or 64");
  }
  return Status::OK();
}

namespace {
void CheckInputs(const GdWorkload& workload, const core::NodeSpec& node,
                 const core::LinkSpec& link) {
  DMLSCALE_CHECK_MSG(workload.Validate().ok(), "invalid GdWorkload");
  DMLSCALE_CHECK_MSG(node.Validate().ok(), "invalid NodeSpec");
  DMLSCALE_CHECK_MSG(link.Validate().ok(), "invalid LinkSpec");
}
}  // namespace

GenericGdModel::GenericGdModel(GdWorkload workload, core::NodeSpec node,
                               core::LinkSpec link)
    : workload_(workload), node_(node), link_(link) {
  CheckInputs(workload, node, link);
}

double GenericGdModel::ComputeSeconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  return workload_.ops_per_example * workload_.batch_size /
         (node_.EffectiveFlops() * static_cast<double>(n));
}

double GenericGdModel::CommSeconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  if (n == 1) return 0.0;
  return 2.0 * (workload_.MessageBits() / link_.bandwidth_bps) *
         std::log2(static_cast<double>(n));
}

double GenericGdModel::Seconds(int n) const {
  return ComputeSeconds(n) + CommSeconds(n);
}

WeakScalingSgdModel::WeakScalingSgdModel(GdWorkload workload,
                                         core::NodeSpec node,
                                         core::LinkSpec link,
                                         CommShape comm_shape)
    : workload_(workload), node_(node), link_(link), comm_shape_(comm_shape) {
  CheckInputs(workload, node, link);
}

double WeakScalingSgdModel::Seconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  double compute =
      workload_.ops_per_example * workload_.batch_size / node_.EffectiveFlops();
  double comm = 0.0;
  if (n > 1) {
    double unit = workload_.MessageBits() / link_.bandwidth_bps;
    switch (comm_shape_) {
      case CommShape::kLogarithmic:
        comm = 2.0 * unit * std::log2(static_cast<double>(n));
        break;
      case CommShape::kLinear:
        comm = 2.0 * unit * static_cast<double>(n);
        break;
    }
  }
  return (compute + comm) / static_cast<double>(n);
}

GdWorkload SparkMnistWorkload() {
  const double params = 12e6;
  return GdWorkload{.ops_per_example = 6.0 * params,
                    .batch_size = 60000.0,
                    .model_params = params,
                    .bits_per_param = kBitsPerFloat64};
}

GdWorkload TensorFlowInceptionWorkload() {
  return GdWorkload{.ops_per_example = 3.0 * 5e9,
                    .batch_size = 128.0,
                    .model_params = 25e6,
                    .bits_per_param = kBitsPerFloat32};
}

GdWorkload LogisticRegressionWorkload(double features, double batch_size,
                                      double bits_per_param) {
  return GdWorkload{.ops_per_example = 6.0 * features,
                    .batch_size = batch_size,
                    .model_params = features,
                    .bits_per_param = bits_per_param};
}

}  // namespace dmlscale::models
