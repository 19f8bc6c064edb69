#include "nn/tensor.h"

#include <algorithm>
#include <atomic>

namespace dmlscale::nn {

namespace {
/// Relaxed is enough: tests only read the counter from the thread that ran
/// the workload, after pool synchronization points.
std::atomic<int64_t> g_heap_allocations{0};

void CountAllocation() {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

int64_t Tensor::HeapAllocationCount() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

int64_t Tensor::Volume(const std::vector<int64_t>& shape) {
  int64_t volume = 1;
  for (int64_t d : shape) {
    DMLSCALE_CHECK_GE(d, 0);
    volume *= d;
  }
  return volume;
}

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(Volume(shape_)), 0.0) {
  if (!data_.empty()) CountAllocation();
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<double> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  DMLSCALE_CHECK_EQ(static_cast<int64_t>(data_.size()), Volume(shape_));
  if (!data_.empty()) CountAllocation();
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_) {
  if (!data_.empty()) CountAllocation();
}

Tensor& Tensor::operator=(const Tensor& other) {
  CopyFrom(other);
  return *this;
}

void Tensor::ResizeTo(const std::vector<int64_t>& shape) {
  if (shape_ == shape) return;
  size_t volume = static_cast<size_t>(Volume(shape));
  if (volume > data_.capacity()) CountAllocation();
  shape_ = shape;
  data_.resize(volume);
}

void Tensor::CopyFrom(const Tensor& other) {
  if (this == &other) return;
  if (other.data_.size() > data_.capacity()) CountAllocation();
  if (shape_ != other.shape_) shape_ = other.shape_;
  data_.assign(other.data_.begin(), other.data_.end());
}

void Tensor::Zero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Tensor::FillGaussian(double stddev, Pcg32* rng) {
  DMLSCALE_CHECK(rng != nullptr);
  for (auto& x : data_) x = rng->NextGaussian(0.0, stddev);
}

void Tensor::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Status Tensor::AddScaledInPlace(const Tensor& other, double factor) {
  if (!SameShape(other)) return Status::InvalidArgument("shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
  return Status::OK();
}

void Tensor::Scale(double factor) {
  for (auto& x : data_) x *= factor;
}

double Tensor::SquaredNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return acc;
}

}  // namespace dmlscale::nn
