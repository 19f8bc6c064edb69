#include "nn/activations.h"

#include <cmath>

namespace dmlscale::nn {

Status SigmoidLayer::ForwardInto(const Tensor& input, Tensor* output) {
  output->ResizeTo(input.shape());
  const double* in = input.data();
  double* out = output->data();
  for (int64_t i = 0; i < input.size(); ++i) {
    out[i] = 1.0 / (1.0 + std::exp(-in[i]));
  }
  last_output_.CopyFrom(*output);
  return Status::OK();
}

Status SigmoidLayer::BackwardInto(const Tensor& grad_output,
                                  Tensor* grad_input) {
  if (!grad_output.SameShape(last_output_)) {
    return Status::InvalidArgument("sigmoid: grad shape mismatch");
  }
  grad_input->ResizeTo(grad_output.shape());
  const double* go = grad_output.data();
  const double* y = last_output_.data();
  double* gi = grad_input->data();
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    gi[i] = go[i] * y[i] * (1.0 - y[i]);
  }
  return Status::OK();
}

std::unique_ptr<Layer> SigmoidLayer::Clone() const {
  return std::make_unique<SigmoidLayer>();
}

Status ReluLayer::ForwardInto(const Tensor& input, Tensor* output) {
  last_input_.CopyFrom(input);
  output->ResizeTo(input.shape());
  const double* in = input.data();
  double* out = output->data();
  for (int64_t i = 0; i < input.size(); ++i) {
    double x = in[i];
    out[i] = x > 0.0 ? x : 0.0;  // compiles to a select, not a branch
  }
  return Status::OK();
}

Status ReluLayer::BackwardInto(const Tensor& grad_output,
                               Tensor* grad_input) {
  if (!grad_output.SameShape(last_input_)) {
    return Status::InvalidArgument("relu: grad shape mismatch");
  }
  grad_input->ResizeTo(grad_output.shape());
  const double* go = grad_output.data();
  const double* x = last_input_.data();
  double* gi = grad_input->data();
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    gi[i] = x[i] > 0.0 ? go[i] : 0.0;
  }
  return Status::OK();
}

std::unique_ptr<Layer> ReluLayer::Clone() const {
  return std::make_unique<ReluLayer>();
}

}  // namespace dmlscale::nn
