#ifndef DMLSCALE_NN_DATA_H_
#define DMLSCALE_NN_DATA_H_

#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "nn/tensor.h"

namespace dmlscale::nn {

/// A supervised dataset: features {examples, dims...} and targets
/// {examples, outputs}.
struct Dataset {
  Tensor features;
  Tensor targets;

  int64_t num_examples() const {
    return features.rank() > 0 ? features.dim(0) : 0;
  }

  /// Contiguous slice [begin, end) of examples.
  Result<Dataset> Slice(int64_t begin, int64_t end) const;

  /// Copies examples [begin, end) into `*out`, reusing its buffers
  /// (allocation-free once warm — the mini-batch path of the trainer).
  Status CopySliceInto(int64_t begin, int64_t end, Dataset* out) const;
};

/// Linearly separable Gaussian blobs, one per class, with one-hot targets.
/// Shapes: features {examples, dims}, targets {examples, classes}.
Result<Dataset> SyntheticClassification(int64_t examples, int64_t dims,
                                        int64_t classes, double noise,
                                        Pcg32* rng);

/// MNIST-like synthetic images: {examples, 1, side, side} blobs with
/// class-dependent position, one-hot targets. Exercises conv layers.
Result<Dataset> SyntheticImages(int64_t examples, int64_t side,
                                int64_t classes, double noise, Pcg32* rng);

}  // namespace dmlscale::nn

#endif  // DMLSCALE_NN_DATA_H_
