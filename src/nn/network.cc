#include "nn/network.h"

#include "nn/activations.h"
#include "nn/dense_layer.h"

namespace dmlscale::nn {

void Network::Add(std::unique_ptr<Layer> layer) {
  DMLSCALE_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  caches_valid_ = false;
}

Status Network::ForwardChain(const Tensor& input, const Tensor** out) {
  if (layers_.empty()) return Status::FailedPrecondition("empty network");
  const Tensor* current = &input;
  int toggle = 0;
  for (auto& layer : layers_) {
    Tensor* dst = &fwd_scratch_[toggle];
    toggle ^= 1;
    DMLSCALE_RETURN_NOT_OK(layer->ForwardInto(*current, dst));
    current = dst;
  }
  *out = current;
  return Status::OK();
}

Status Network::BackwardChain(const Tensor& grad_loss, const Tensor** out) {
  if (layers_.empty()) return Status::FailedPrecondition("empty network");
  const Tensor* current = &grad_loss;
  int toggle = 0;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    Tensor* dst = &bwd_scratch_[toggle];
    toggle ^= 1;
    DMLSCALE_RETURN_NOT_OK((*it)->BackwardInto(*current, dst));
    current = dst;
  }
  *out = current;
  return Status::OK();
}

Result<Tensor> Network::Forward(const Tensor& input) {
  const Tensor* out = nullptr;
  DMLSCALE_RETURN_NOT_OK(ForwardChain(input, &out));
  return *out;
}

Result<Tensor> Network::Backward(const Tensor& grad_loss) {
  const Tensor* out = nullptr;
  DMLSCALE_RETURN_NOT_OK(BackwardChain(grad_loss, &out));
  return *out;
}

Result<double> Network::ComputeGradients(const Tensor& input,
                                         const Tensor& targets,
                                         const Loss& loss) {
  const Tensor* predictions = nullptr;
  DMLSCALE_RETURN_NOT_OK(ForwardChain(input, &predictions));
  double loss_value = 0.0;
  DMLSCALE_RETURN_NOT_OK(
      loss.ComputeInto(*predictions, targets, &loss_value,
                       &loss_grad_scratch_));
  const Tensor* ignored = nullptr;
  DMLSCALE_RETURN_NOT_OK(BackwardChain(loss_grad_scratch_, &ignored));
  return loss_value;
}

void Network::ZeroGradients() {
  for (auto& layer : layers_) layer->ZeroGradients();
}

void Network::EnsureViewCaches() {
  if (caches_valid_) return;
  param_cache_.clear();
  grad_cache_.clear();
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Parameters()) param_cache_.push_back(p);
    for (Tensor* g : layer->Gradients()) grad_cache_.push_back(g);
  }
  caches_valid_ = true;
}

const std::vector<Tensor*>& Network::Parameters() {
  EnsureViewCaches();
  return param_cache_;
}

const std::vector<Tensor*>& Network::Gradients() {
  EnsureViewCaches();
  return grad_cache_;
}

Status Network::CopyParametersFrom(Network& other) {
  const auto& dst = Parameters();
  const auto& src = other.Parameters();
  if (dst.size() != src.size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    if (!dst[i]->SameShape(*src[i])) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    dst[i]->CopyFrom(*src[i]);
  }
  return Status::OK();
}

Status Network::AccumulateScaledGradientsFrom(Network& other, double weight) {
  const auto& dst = Gradients();
  const auto& src = other.Gradients();
  if (dst.size() != src.size()) {
    return Status::InvalidArgument("gradient count mismatch");
  }
  for (size_t i = 0; i < dst.size(); ++i) {
    DMLSCALE_RETURN_NOT_OK(dst[i]->AddScaledInPlace(*src[i], weight));
  }
  return Status::OK();
}

int64_t Network::WeightCount() const {
  int64_t total = 0;
  for (const auto& layer : layers_) total += layer->WeightCount();
  return total;
}

int64_t Network::ForwardMultiplyAddsPerExample() const {
  int64_t total = 0;
  for (const auto& layer : layers_) {
    total += layer->ForwardMultiplyAddsPerExample();
  }
  return total;
}

Network Network::Clone() const {
  Network copy;
  for (const auto& layer : layers_) copy.Add(layer->Clone());
  return copy;
}

Network Network::FullyConnected(const std::vector<int64_t>& sizes,
                                Pcg32* rng) {
  DMLSCALE_CHECK_GE(sizes.size(), 2u);
  DMLSCALE_CHECK(rng != nullptr);
  Network net;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    net.Add(std::make_unique<DenseLayer>(sizes[i], sizes[i + 1], rng));
    if (i + 2 < sizes.size()) net.Add(std::make_unique<SigmoidLayer>());
  }
  return net;
}

}  // namespace dmlscale::nn
