#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dmlscale::nn {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.rank(), 2u);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(TensorTest, ExplicitData) {
  Tensor t({2, 2}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(t.At2(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.At2(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t.At2(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(t.At2(1, 1), 4.0);
}

TEST(TensorTest, Index4RowMajor) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.Index4(0, 0, 0, 0), 0);
  EXPECT_EQ(t.Index4(0, 0, 0, 1), 1);
  EXPECT_EQ(t.Index4(0, 0, 1, 0), 5);
  EXPECT_EQ(t.Index4(0, 1, 0, 0), 20);
  EXPECT_EQ(t.Index4(1, 0, 0, 0), 60);
  EXPECT_EQ(t.Index4(1, 2, 3, 4), 119);
}

TEST(TensorTest, FillAndZero) {
  Tensor t({4});
  t.Fill(2.5);
  for (int64_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t[i], 2.5);
  t.Zero();
  for (int64_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(TensorTest, FillGaussianStats) {
  Pcg32 rng(1);
  Tensor t({10000});
  t.FillGaussian(0.5, &rng);
  double sum = 0.0, sq = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += t[i] * t[i];
  }
  double mean = sum / 10000.0;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sq / 10000.0 - mean * mean), 0.5, 0.02);
}

TEST(TensorTest, ScaleAndNorm) {
  Tensor t({2}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 25.0);
  t.Scale(2.0);
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 100.0);
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(Tensor({2, 3}).SameShape(Tensor({2, 3})));
  EXPECT_FALSE(Tensor({2, 3}).SameShape(Tensor({3, 2})));
}

TEST(TensorTest, VolumeOfEmptyShapeIsOne) {
  EXPECT_EQ(Tensor::Volume({}), 1);
  EXPECT_EQ(Tensor::Volume({0, 5}), 0);
}

}  // namespace
}  // namespace dmlscale::nn
