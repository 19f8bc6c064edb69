#ifndef DMLSCALE_NN_ACTIVATIONS_H_
#define DMLSCALE_NN_ACTIVATIONS_H_

#include <memory>

#include "nn/layer.h"

namespace dmlscale::nn {

/// Elementwise logistic sigmoid, the paper's canonical nonlinearity.
class SigmoidLayer final : public Layer {
 public:
  Status ForwardInto(const Tensor& input, Tensor* output) override;
  Status BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  std::string name() const override { return "sigmoid"; }
  std::unique_ptr<Layer> Clone() const override;

 private:
  Tensor last_output_;
};

/// Elementwise rectified linear unit (branch-free select, so throughput is
/// independent of the sign distribution of the input).
class ReluLayer final : public Layer {
 public:
  Status ForwardInto(const Tensor& input, Tensor* output) override;
  Status BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  std::string name() const override { return "relu"; }
  std::unique_ptr<Layer> Clone() const override;

 private:
  Tensor last_input_;
};

}  // namespace dmlscale::nn

#endif  // DMLSCALE_NN_ACTIVATIONS_H_
