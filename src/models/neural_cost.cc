#include "models/neural_cost.h"

#include "common/check.h"

namespace dmlscale::models {

int64_t DenseLayerSpec::Weights() const {
  return inputs * outputs + (bias ? outputs : 0);
}

int64_t DenseLayerSpec::ForwardComputations() const {
  // "two matrix multiplications per each network layer, 2 * n_i * m_i"
  // (Section V-A): multiply and add counted separately.
  return 2 * inputs * outputs;
}

Status DenseLayerSpec::Validate() const {
  if (inputs <= 0 || outputs <= 0) {
    return Status::InvalidArgument("dense layer sizes must be positive");
  }
  return Status::OK();
}

int64_t ConvLayerSpec::OutputSide() const {
  // c = (l - k + b) / s + 1 with integer division (Section V-A).
  return (input_side - kernel + border) / stride + 1;
}

int64_t ConvLayerSpec::Weights() const {
  int64_t c = OutputSide();
  // n * (k*k*d); bias contributes c*c when present (Section V-A).
  return num_maps * kernel * KernelWidth() * depth + (bias ? c * c : 0);
}

int64_t ConvLayerSpec::ForwardComputations() const {
  int64_t c = OutputSide();
  // n * (k*k*d * c*c) (Section V-A).
  return num_maps * kernel * KernelWidth() * depth * c * c;
}

Status ConvLayerSpec::Validate() const {
  if (num_maps <= 0 || kernel <= 0 || input_side <= 0 || depth <= 0) {
    return Status::InvalidArgument("conv layer dims must be positive");
  }
  if (stride <= 0) return Status::InvalidArgument("stride must be positive");
  if (border < 0) return Status::InvalidArgument("border must be >= 0");
  if (kernel_w < 0) return Status::InvalidArgument("kernel_w must be >= 0");
  if (OutputSide() <= 0) {
    return Status::InvalidArgument("conv layer output side is not positive");
  }
  return Status::OK();
}

NetworkSpec::NetworkSpec(std::string name, std::vector<LayerSpec> layers)
    : name_(std::move(name)), layers_(std::move(layers)) {
  DMLSCALE_CHECK(!layers_.empty());
}

NetworkSpec NetworkSpec::FullyConnected(std::string name,
                                        const std::vector<int64_t>& sizes,
                                        bool bias) {
  DMLSCALE_CHECK_GE(sizes.size(), 2u);
  std::vector<LayerSpec> layers;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers.push_back(DenseLayerSpec{
        .inputs = sizes[i], .outputs = sizes[i + 1], .bias = bias});
  }
  return NetworkSpec(std::move(name), std::move(layers));
}

namespace {
struct WeightsVisitor {
  int64_t operator()(const DenseLayerSpec& l) const { return l.Weights(); }
  int64_t operator()(const ConvLayerSpec& l) const { return l.Weights(); }
};
struct ForwardVisitor {
  int64_t operator()(const DenseLayerSpec& l) const {
    return l.ForwardComputations();
  }
  int64_t operator()(const ConvLayerSpec& l) const {
    return l.ForwardComputations();
  }
};
struct ValidateVisitor {
  Status operator()(const DenseLayerSpec& l) const { return l.Validate(); }
  Status operator()(const ConvLayerSpec& l) const { return l.Validate(); }
};
}  // namespace

int64_t NetworkSpec::TotalWeights() const {
  int64_t total = 0;
  for (const auto& layer : layers_) {
    total += std::visit(WeightsVisitor{}, layer);
  }
  return total;
}

int64_t NetworkSpec::ForwardComputations() const {
  int64_t total = 0;
  for (const auto& layer : layers_) {
    total += std::visit(ForwardVisitor{}, layer);
  }
  return total;
}

int64_t NetworkSpec::TrainingComputations() const {
  // Forward pass, error back propagation, and gradient computation each
  // cost one forward-equivalent (Section V-A): 3 * 2W = 6W for dense nets.
  return 3 * ForwardComputations();
}

Status NetworkSpec::Validate() const {
  for (const auto& layer : layers_) {
    DMLSCALE_RETURN_NOT_OK(std::visit(ValidateVisitor{}, layer));
  }
  return Status::OK();
}

namespace presets {

NetworkSpec MnistFullyConnected() {
  // Five hidden layers per Ciresan et al.; Table I: 12e6 params, 24e6 ops.
  return NetworkSpec::FullyConnected(
      "fully-connected-mnist", {784, 2500, 2000, 1500, 1000, 500, 10});
}

namespace {

/// Square conv helper with "same" padding expressed via the paper's border
/// parameter (b = k - 1 keeps the side for stride 1).
ConvLayerSpec Conv(int64_t maps, int64_t k, int64_t side, int64_t depth,
                   int64_t border = 0, int64_t stride = 1) {
  return ConvLayerSpec{.num_maps = maps,
                       .kernel = k,
                       .input_side = side,
                       .depth = depth,
                       .border = border,
                       .stride = stride};
}

/// Rectangular (factorized) conv that preserves the spatial side.
ConvLayerSpec RectConv(int64_t maps, int64_t kh, int64_t kw, int64_t side,
                       int64_t depth) {
  return ConvLayerSpec{.num_maps = maps,
                       .kernel = kh,
                       .input_side = side,
                       .depth = depth,
                       .border = kh - 1,
                       .stride = 1,
                       .kernel_w = kw};
}

void InceptionA(std::vector<LayerSpec>* out, int64_t in, int64_t pool_maps) {
  const int64_t side = 35;
  out->push_back(Conv(64, 1, side, in));
  out->push_back(Conv(48, 1, side, in));
  out->push_back(Conv(64, 5, side, 48, /*border=*/4));
  out->push_back(Conv(64, 1, side, in));
  out->push_back(Conv(96, 3, side, 64, /*border=*/2));
  out->push_back(Conv(96, 3, side, 96, /*border=*/2));
  out->push_back(Conv(pool_maps, 1, side, in));
}

void InceptionB(std::vector<LayerSpec>* out, int64_t in) {
  const int64_t side = 35;
  out->push_back(Conv(384, 3, side, in, /*border=*/0, /*stride=*/2));
  out->push_back(Conv(64, 1, side, in));
  out->push_back(Conv(96, 3, side, 64, /*border=*/2));
  out->push_back(Conv(96, 3, side, 96, /*border=*/0, /*stride=*/2));
}

void InceptionC(std::vector<LayerSpec>* out, int64_t in, int64_t c7) {
  const int64_t side = 17;
  out->push_back(Conv(192, 1, side, in));
  out->push_back(Conv(c7, 1, side, in));
  out->push_back(RectConv(c7, 1, 7, side, c7));
  out->push_back(RectConv(192, 7, 1, side, c7));
  out->push_back(Conv(c7, 1, side, in));
  out->push_back(RectConv(c7, 7, 1, side, c7));
  out->push_back(RectConv(c7, 1, 7, side, c7));
  out->push_back(RectConv(c7, 7, 1, side, c7));
  out->push_back(RectConv(192, 1, 7, side, c7));
  out->push_back(Conv(192, 1, side, in));
}

void InceptionD(std::vector<LayerSpec>* out, int64_t in) {
  const int64_t side = 17;
  out->push_back(Conv(192, 1, side, in));
  out->push_back(Conv(320, 3, side, 192, /*border=*/0, /*stride=*/2));
  out->push_back(Conv(192, 1, side, in));
  out->push_back(RectConv(192, 1, 7, side, 192));
  out->push_back(RectConv(192, 7, 1, side, 192));
  out->push_back(Conv(192, 3, side, 192, /*border=*/0, /*stride=*/2));
}

void InceptionE(std::vector<LayerSpec>* out, int64_t in) {
  const int64_t side = 8;
  out->push_back(Conv(320, 1, side, in));
  out->push_back(Conv(384, 1, side, in));
  out->push_back(RectConv(384, 1, 3, side, 384));
  out->push_back(RectConv(384, 3, 1, side, 384));
  out->push_back(Conv(448, 1, side, in));
  out->push_back(Conv(384, 3, side, 448, /*border=*/2));
  out->push_back(RectConv(384, 1, 3, side, 384));
  out->push_back(RectConv(384, 3, 1, side, 384));
  out->push_back(Conv(192, 1, side, in));
}

}  // namespace

NetworkSpec InceptionV3() {
  std::vector<LayerSpec> layers;
  // Stem (Szegedy et al. 2015; 299x299x3 input).
  layers.push_back(Conv(32, 3, 299, 3, /*border=*/0, /*stride=*/2));  // ->149
  layers.push_back(Conv(32, 3, 149, 32));                             // ->147
  layers.push_back(Conv(64, 3, 147, 32, /*border=*/2));               // ->147
  // max pool 3x3/2 -> 73 (no trainable cost)
  layers.push_back(Conv(80, 1, 73, 64));                              // ->73
  layers.push_back(Conv(192, 3, 73, 80));                             // ->71
  // max pool 3x3/2 -> 35
  InceptionA(&layers, 192, 32);   // -> 256 channels
  InceptionA(&layers, 256, 64);   // -> 288
  InceptionA(&layers, 288, 64);   // -> 288
  InceptionB(&layers, 288);       // -> 768 @ 17x17
  InceptionC(&layers, 768, 128);
  InceptionC(&layers, 768, 160);
  InceptionC(&layers, 768, 160);
  InceptionC(&layers, 768, 192);
  InceptionD(&layers, 768);       // -> 1280 @ 8x8
  InceptionE(&layers, 1280);      // -> 2048
  InceptionE(&layers, 2048);
  // Global average pool, then the classifier.
  layers.push_back(
      DenseLayerSpec{.inputs = 2048, .outputs = 1000, .bias = true});
  return NetworkSpec("inception-v3", std::move(layers));
}

}  // namespace presets
}  // namespace dmlscale::models
