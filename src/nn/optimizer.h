#ifndef DMLSCALE_NN_OPTIMIZER_H_
#define DMLSCALE_NN_OPTIMIZER_H_

#include "common/status.h"
#include "nn/network.h"

namespace dmlscale::nn {

/// Plain stochastic gradient descent: w -= lr * grad.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double learning_rate);

  /// Applies accumulated gradients to the network parameters, then zeroes
  /// them. `scale` divides the gradients first (e.g. 1/batch for averaged
  /// aggregation across data-parallel workers).
  Status Step(Network* network, double scale = 1.0);

  double learning_rate() const { return learning_rate_; }

 private:
  double learning_rate_;
};

/// One full batch-gradient-descent iteration on (input, targets):
/// zero grads, forward, loss, backward, SGD step. Returns the loss before
/// the update.
Result<double> TrainBatch(Network* network, const Tensor& input,
                          const Tensor& targets, const Loss& loss,
                          SgdOptimizer* optimizer);

}  // namespace dmlscale::nn

#endif  // DMLSCALE_NN_OPTIMIZER_H_
