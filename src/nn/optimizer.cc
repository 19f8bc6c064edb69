#include "nn/optimizer.h"

#include "common/check.h"

namespace dmlscale::nn {

SgdOptimizer::SgdOptimizer(double learning_rate)
    : learning_rate_(learning_rate) {
  DMLSCALE_CHECK_GT(learning_rate, 0.0);
}

Status SgdOptimizer::Step(Network* network, double scale) {
  if (network == nullptr) return Status::InvalidArgument("null network");
  if (scale <= 0.0) return Status::InvalidArgument("scale must be > 0");
  const auto& params = network->Parameters();
  const auto& grads = network->Gradients();
  if (params.size() != grads.size()) {
    return Status::Internal("parameter/gradient arity mismatch");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor* p = params[i];
    Tensor* g = grads[i];
    if (!p->SameShape(*g)) return Status::Internal("param/grad shape mismatch");
    for (int64_t j = 0; j < p->size(); ++j) {
      (*p)[j] -= learning_rate_ * (*g)[j] * scale;
    }
  }
  network->ZeroGradients();
  return Status::OK();
}

Result<double> TrainBatch(Network* network, const Tensor& input,
                          const Tensor& targets, const Loss& loss,
                          SgdOptimizer* optimizer) {
  if (network == nullptr || optimizer == nullptr) {
    return Status::InvalidArgument("null network or optimizer");
  }
  network->ZeroGradients();
  DMLSCALE_ASSIGN_OR_RETURN(double batch_loss,
                            network->ComputeGradients(input, targets, loss));
  DMLSCALE_RETURN_NOT_OK(optimizer->Step(network));
  return batch_loss;
}

}  // namespace dmlscale::nn
