#ifndef DMLSCALE_NN_NETWORK_H_
#define DMLSCALE_NN_NETWORK_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "nn/layer.h"
#include "nn/loss.h"

namespace dmlscale::nn {

/// A sequential stack of layers with backprop. This is the executable
/// counterpart of models::NetworkSpec: its per-layer multiply-add counts
/// are cross-checked against the analytical calculator in tests.
///
/// Activations and gradients flow through network-owned scratch tensors
/// that are reused across calls, and parameter/gradient pointer lists are
/// cached, so ComputeGradients performs zero heap allocations once the
/// scratch is warm (the steady state of every training loop).
class Network {
 public:
  Network() = default;

  /// Non-copyable (layers own large state); use Clone().
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  void Add(std::unique_ptr<Layer> layer);

  /// Runs all layers forward. Allocates the returned tensor; training
  /// paths use ComputeGradients, which stays on internal scratch.
  Result<Tensor> Forward(const Tensor& input);

  /// Backpropagates from dLoss/dPredictions; accumulates parameter grads.
  Result<Tensor> Backward(const Tensor& grad_loss);

  /// Forward + loss + backward; returns the batch loss. Allocation-free in
  /// steady state.
  Result<double> ComputeGradients(const Tensor& input, const Tensor& targets,
                                  const Loss& loss);

  /// Clears all accumulated gradients.
  void ZeroGradients();

  /// Flattened views of all trainable parameters / gradients. The vectors
  /// are cached; they remain valid until the next Add().
  const std::vector<Tensor*>& Parameters();
  const std::vector<Tensor*>& Gradients();

  /// Copies parameter values from another network of identical topology.
  Status CopyParametersFrom(Network& other);

  /// Adds `weight` * other's gradients into this network's gradients —
  /// the batch-parallel trainer's shard-weighted reduction step.
  /// Allocation-free.
  Status AccumulateScaledGradientsFrom(Network& other, double weight);

  /// Total trainable weights.
  int64_t WeightCount() const;

  /// Multiply-adds per example of one forward pass.
  int64_t ForwardMultiplyAddsPerExample() const;

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_.at(i); }

  /// Deep copy (scratch buffers start cold in the copy).
  Network Clone() const;

  /// Builds a fully connected sigmoid network from layer sizes, e.g.
  /// {784, 2500, ..., 10}: dense + sigmoid pairs, final layer linear.
  static Network FullyConnected(const std::vector<int64_t>& sizes, Pcg32* rng);

 private:
  /// Runs the forward chain on scratch; `*out` points at the final
  /// activation (owned by this network, valid until the next call).
  Status ForwardChain(const Tensor& input, const Tensor** out);
  Status BackwardChain(const Tensor& grad_loss, const Tensor** out);
  void EnsureViewCaches();

  std::vector<std::unique_ptr<Layer>> layers_;
  // Ping-pong scratch: layer i reads one buffer and writes the other.
  Tensor fwd_scratch_[2];
  Tensor bwd_scratch_[2];
  Tensor loss_grad_scratch_;
  std::vector<Tensor*> param_cache_;
  std::vector<Tensor*> grad_cache_;
  bool caches_valid_ = false;
};

}  // namespace dmlscale::nn

#endif  // DMLSCALE_NN_NETWORK_H_
