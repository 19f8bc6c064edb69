#include "nn/activations.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace dmlscale::nn {
namespace {

template <typename LayerT>
void GradientCheck(LayerT* layer, Tensor input, double tolerance) {
  auto out = layer->Forward(input);
  ASSERT_TRUE(out.ok());
  Tensor ones(out->shape());
  ones.Fill(1.0);
  auto grad = layer->Backward(ones);
  ASSERT_TRUE(grad.ok());
  const double eps = 1e-6;
  for (int64_t i = 0; i < input.size(); ++i) {
    Tensor perturbed = input;
    perturbed[i] += eps;
    auto up = layer->Forward(perturbed);
    perturbed[i] -= 2 * eps;
    auto down = layer->Forward(perturbed);
    ASSERT_TRUE(up.ok());
    ASSERT_TRUE(down.ok());
    double up_sum = 0.0, down_sum = 0.0;
    for (int64_t j = 0; j < up->size(); ++j) {
      up_sum += (*up)[j];
      down_sum += (*down)[j];
    }
    EXPECT_NEAR((*grad)[i], (up_sum - down_sum) / (2 * eps), tolerance)
        << "index " << i;
  }
}

TEST(SigmoidTest, KnownValues) {
  SigmoidLayer layer;
  Tensor input({1, 3}, {0.0, 100.0, -100.0});
  auto out = layer.Forward(input);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 0.5);
  EXPECT_NEAR((*out)[1], 1.0, 1e-12);
  EXPECT_NEAR((*out)[2], 0.0, 1e-12);
}

TEST(SigmoidTest, GradientCheck) {
  Pcg32 rng(1);
  SigmoidLayer layer;
  Tensor input({2, 4});
  input.FillGaussian(1.0, &rng);
  GradientCheck(&layer, input, 1e-6);
}

TEST(ReluTest, ClampsNegatives) {
  ReluLayer layer;
  Tensor input({1, 4}, {-1.0, 0.0, 2.0, -0.5});
  auto out = layer.Forward(input);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 0.0);
  EXPECT_DOUBLE_EQ((*out)[1], 0.0);
  EXPECT_DOUBLE_EQ((*out)[2], 2.0);
  EXPECT_DOUBLE_EQ((*out)[3], 0.0);
}

TEST(ReluTest, GradientMasksNegativeInputs) {
  ReluLayer layer;
  Tensor input({1, 3}, {-1.0, 1.0, 2.0});
  ASSERT_TRUE(layer.Forward(input).ok());
  Tensor grad_out({1, 3}, {5.0, 5.0, 5.0});
  auto grad = layer.Backward(grad_out);
  ASSERT_TRUE(grad.ok());
  EXPECT_DOUBLE_EQ((*grad)[0], 0.0);
  EXPECT_DOUBLE_EQ((*grad)[1], 5.0);
  EXPECT_DOUBLE_EQ((*grad)[2], 5.0);
}

TEST(ActivationTest, ShapeMismatchInBackward) {
  SigmoidLayer layer;
  ASSERT_TRUE(layer.Forward(Tensor({1, 3})).ok());
  EXPECT_FALSE(layer.Backward(Tensor({1, 4})).ok());
}

}  // namespace
}  // namespace dmlscale::nn
