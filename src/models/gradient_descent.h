#ifndef DMLSCALE_MODELS_GRADIENT_DESCENT_H_
#define DMLSCALE_MODELS_GRADIENT_DESCENT_H_

#include <memory>

#include "common/status.h"
#include "core/hardware.h"
#include "core/superstep.h"

namespace dmlscale::models {

/// Workload description for data-parallel (mini-batch) gradient descent
/// (Section IV-A).
///
/// A note on units: the paper counts neural-network work in "multiply-add"
/// operations and divides directly by hardware FLOP/s (Section V-A); this
/// library follows that convention, so `ops_per_example` is in
/// multiply-adds and `NodeSpec::EffectiveFlops()` is treated as
/// multiply-adds per second.
struct GdWorkload {
  /// `C`: computation cost of the gradient for one data point.
  double ops_per_example = 0.0;
  /// `S`: examples per batch (per iteration for batch GD; per worker for
  /// the weak-scaling mini-batch model).
  double batch_size = 0.0;
  /// `W`: number of model parameters.
  double model_params = 0.0;
  /// Bits per parameter: 32 for the paper's generic model, 64 for the
  /// Spark double-precision implementation.
  double bits_per_param = 32.0;

  /// Communication payload in bits: `bits_per_param * W`.
  double MessageBits() const { return bits_per_param * model_params; }

  Status Validate() const;
};

/// The paper's generic gradient-descent model (Section IV-A):
///   tcp = (C * S) / (F * n)
///   tcm = 2 * (bits * W / B) * log2(n)
/// Two-stage tree communication: gradients are aggregated to the master and
/// updates broadcast back.
class GenericGdModel final : public core::AlgorithmModel {
 public:
  GenericGdModel(GdWorkload workload, core::NodeSpec node,
                 core::LinkSpec link);

  double Seconds(int n) const override;
  std::string name() const override { return "gradient-descent-generic"; }

  /// Computation term alone.
  double ComputeSeconds(int n) const;
  /// Communication term alone.
  double CommSeconds(int n) const;

 private:
  GdWorkload workload_;
  core::NodeSpec node_;
  core::LinkSpec link_;
};

/// The weak-scaling synchronous mini-batch SGD model of Fig. 3
/// (Section V-A). Each worker holds a fixed mini-batch `S`; adding workers
/// grows the effective batch. The modeled quantity is the processing time
/// of ONE instance:
///   t(n) = ((C * S) / F + 2 * (bits * W / B) * log2(n)) / n
/// Logarithmic aggregation permits infinite weak scaling; the linear
/// alternative only scales until communication equals computation.
class WeakScalingSgdModel final : public core::AlgorithmModel {
 public:
  enum class CommShape { kLogarithmic, kLinear };

  WeakScalingSgdModel(GdWorkload workload, core::NodeSpec node,
                      core::LinkSpec link,
                      CommShape comm_shape = CommShape::kLogarithmic);

  /// Per-instance processing time on `n` workers.
  double Seconds(int n) const override;
  std::string name() const override { return "sgd-weak-scaling"; }

 private:
  GdWorkload workload_;
  core::NodeSpec node_;
  core::LinkSpec link_;
  CommShape comm_shape_;
};

/// Builds the Fig. 2 workload: the MNIST fully connected network trained
/// with Spark batch GD — W = 12e6 64-bit params, S = 60000, C = 6W. Its
/// Section V-A model is the api::Scenario of "perfectly-parallel" work
/// C * S and the "spark-gd" collective of MessageBits() (see
/// bench/fig2_fc_ann_spark.cc).
GdWorkload SparkMnistWorkload();

/// Builds the Fig. 3 workload: Inception v3 trained with synchronous
/// mini-batch SGD — W = 25e6 32-bit params, S = 128 per worker, C = 3*5e9.
GdWorkload TensorFlowInceptionWorkload();

/// Logistic regression (the paper's click-through-rate example,
/// Section IV-A): W = `features` parameters; the gradient of one example
/// costs about 3 passes over the features (dot product, sigmoid residual,
/// scaled accumulate) -> C = 6 * features operations in the paper's
/// multiply+add counting convention.
GdWorkload LogisticRegressionWorkload(double features, double batch_size,
                                      double bits_per_param = 64.0);

}  // namespace dmlscale::models

#endif  // DMLSCALE_MODELS_GRADIENT_DESCENT_H_
