#ifndef DMLSCALE_NN_TENSOR_H_
#define DMLSCALE_NN_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/status.h"

namespace dmlscale::nn {

/// Dense row-major tensor of doubles. Minimal by design: the neural-network
/// substrate exists to execute real training for validating the cost
/// models, not to compete with BLAS — but its hot paths are GEMM-backed
/// (see nn/kernels.h) and its buffers are reusable scratch space:
/// ResizeTo/CopyFrom keep the heap allocation, so steady-state training
/// loops allocate nothing (verified via HeapAllocationCount()).
class Tensor {
 public:
  /// Empty (rank-0, zero elements).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Tensor with explicit contents; `data.size()` must equal the shape
  /// volume.
  Tensor(std::vector<int64_t> shape, std::vector<double> data);

  /// Copies count as heap allocations when they grow the destination
  /// buffer; moves never do.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(size_t i) const { return shape_.at(i); }
  size_t rank() const { return shape_.size(); }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  double operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// 2D accessors (checked rank).
  double& At2(int64_t r, int64_t c) {
    DMLSCALE_CHECK_EQ(rank(), 2u);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  double At2(int64_t r, int64_t c) const {
    DMLSCALE_CHECK_EQ(rank(), 2u);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// 4D accessor for (batch, channel, row, col) layouts.
  int64_t Index4(int64_t b, int64_t ch, int64_t r, int64_t c) const {
    DMLSCALE_CHECK_EQ(rank(), 4u);
    return ((b * shape_[1] + ch) * shape_[2] + r) * shape_[3] + c;
  }

  /// Reshapes in place, reusing the existing buffer when its capacity
  /// suffices (the scratch-space primitive behind the Into layer API).
  /// Element values are unspecified afterwards; callers must overwrite.
  void ResizeTo(const std::vector<int64_t>& shape);

  /// Copies shape and contents from `other`, reusing this buffer's
  /// capacity when possible.
  void CopyFrom(const Tensor& other);

  /// Sets all elements to zero.
  void Zero();

  /// Fills with N(0, stddev) values.
  void FillGaussian(double stddev, Pcg32* rng);

  /// Fills with a constant.
  void Fill(double value);

  /// Elementwise a += factor * b; fails on shape mismatch. The scaling
  /// happens on the fly, so no temporary tensor is materialized (used by
  /// the trainer's ordered gradient reduction).
  Status AddScaledInPlace(const Tensor& other, double factor);

  /// Elementwise scale.
  void Scale(double factor);

  /// Sum of squares of all elements.
  double SquaredNorm() const;

  /// True when shapes match exactly.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  static int64_t Volume(const std::vector<int64_t>& shape);

  /// Process-wide count of tensor buffer acquisitions/growths (constructor
  /// allocations, copies, and ResizeTo/CopyFrom growth beyond capacity).
  /// Test hook for the zero-allocation-in-steady-state property: the delta
  /// across N extra training epochs must be zero.
  static int64_t HeapAllocationCount();

 private:
  std::vector<int64_t> shape_;
  std::vector<double> data_;
};

}  // namespace dmlscale::nn

#endif  // DMLSCALE_NN_TENSOR_H_
