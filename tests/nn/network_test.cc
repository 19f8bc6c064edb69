#include "nn/network.h"

#include <gtest/gtest.h>

#include "models/neural_cost.h"
#include "nn/activations.h"
#include "nn/data.h"
#include "nn/dense_layer.h"
#include "nn/optimizer.h"

namespace dmlscale::nn {
namespace {

TEST(NetworkTest, FullyConnectedBuilderLayout) {
  Pcg32 rng(1);
  Network net = Network::FullyConnected({4, 8, 3}, &rng);
  // dense(4,8), sigmoid, dense(8,3) — no trailing activation.
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.layer(0).name(), "dense");
  EXPECT_EQ(net.layer(1).name(), "sigmoid");
  EXPECT_EQ(net.layer(2).name(), "dense");
}

TEST(NetworkTest, ForwardShape) {
  Pcg32 rng(2);
  Network net = Network::FullyConnected({4, 8, 3}, &rng);
  auto out = net.Forward(Tensor({5, 4}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->dim(0), 5);
  EXPECT_EQ(out->dim(1), 3);
}

TEST(NetworkTest, EmptyNetworkFails) {
  Network net;
  EXPECT_FALSE(net.Forward(Tensor({1, 1})).ok());
  EXPECT_FALSE(net.Backward(Tensor({1, 1})).ok());
}

TEST(NetworkTest, WeightCountMatchesSpecCalculator) {
  Pcg32 rng(3);
  // The executable network (with biases) vs the paper-convention spec
  // (no biases): executable adds one bias per output unit.
  std::vector<int64_t> sizes{20, 15, 10, 5};
  Network net = Network::FullyConnected(sizes, &rng);
  models::NetworkSpec spec = models::NetworkSpec::FullyConnected("s", sizes);
  int64_t bias_count = 15 + 10 + 5;
  EXPECT_EQ(net.WeightCount(), spec.TotalWeights() + bias_count);
}

TEST(NetworkTest, ForwardOpsMatchSpecCalculator) {
  Pcg32 rng(4);
  std::vector<int64_t> sizes{20, 15, 10, 5};
  Network net = Network::FullyConnected(sizes, &rng);
  models::NetworkSpec spec = models::NetworkSpec::FullyConnected("s", sizes);
  // The spec counts 2 ops per weight (paper convention); the runtime
  // counter counts fused multiply-adds.
  EXPECT_EQ(2 * net.ForwardMultiplyAddsPerExample(),
            spec.ForwardComputations());
}

TEST(NetworkTest, TrainingReducesLossOnSyntheticData) {
  Pcg32 rng(5);
  auto data = SyntheticClassification(200, 8, 3, 0.3, &rng);
  ASSERT_TRUE(data.ok());
  Network net = Network::FullyConnected({8, 16, 3}, &rng);
  SoftmaxCrossEntropyLoss loss;
  SgdOptimizer optimizer(0.5);
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    auto l = TrainBatch(&net, data->features, data->targets, loss, &optimizer);
    ASSERT_TRUE(l.ok());
    if (epoch == 0) first_loss = l.value();
    last_loss = l.value();
  }
  EXPECT_LT(last_loss, first_loss * 0.5)
      << "training failed to reduce loss: " << first_loss << " -> "
      << last_loss;
}

TEST(NetworkTest, CloneProducesIdenticalOutputs) {
  Pcg32 rng(6);
  Network net = Network::FullyConnected({6, 12, 4}, &rng);
  Network clone = net.Clone();
  Pcg32 data_rng(7);
  Tensor input({3, 6});
  input.FillGaussian(1.0, &data_rng);
  auto a = net.Forward(input);
  auto b = clone.Forward(input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int64_t i = 0; i < a->size(); ++i) EXPECT_DOUBLE_EQ((*a)[i], (*b)[i]);
}

TEST(NetworkTest, CopyParametersFrom) {
  Pcg32 rng1(8), rng2(9);
  Network a = Network::FullyConnected({4, 4, 2}, &rng1);
  Network b = Network::FullyConnected({4, 4, 2}, &rng2);
  ASSERT_TRUE(b.CopyParametersFrom(a).ok());
  Tensor input({1, 4}, {1.0, -1.0, 0.5, 2.0});
  auto out_a = a.Forward(input);
  auto out_b = b.Forward(input);
  ASSERT_TRUE(out_a.ok());
  ASSERT_TRUE(out_b.ok());
  for (int64_t i = 0; i < out_a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*out_a)[i], (*out_b)[i]);
  }
}

TEST(NetworkTest, CopyParametersRejectsMismatchedTopology) {
  Pcg32 rng(10);
  Network a = Network::FullyConnected({4, 4, 2}, &rng);
  Network b = Network::FullyConnected({4, 5, 2}, &rng);
  EXPECT_FALSE(b.CopyParametersFrom(a).ok());
}

TEST(SgdOptimizerTest, StepMovesAgainstGradient) {
  Pcg32 rng(12);
  Network net = Network::FullyConnected({2, 1}, &rng);
  Tensor input({1, 2}, {1.0, 1.0});
  Tensor target({1, 1}, {10.0});
  MeanSquaredError loss;
  auto before = net.Forward(input);
  ASSERT_TRUE(before.ok());
  SgdOptimizer optimizer(0.1);
  ASSERT_TRUE(TrainBatch(&net, input, target, loss, &optimizer).ok());
  auto after = net.Forward(input);
  ASSERT_TRUE(after.ok());
  // Prediction moves toward the target.
  EXPECT_GT((*after)[0], (*before)[0]);
}

TEST(SgdOptimizerTest, RejectsBadArgs) {
  SgdOptimizer optimizer(0.1);
  EXPECT_FALSE(optimizer.Step(nullptr).ok());
  Pcg32 rng(13);
  Network net = Network::FullyConnected({2, 1}, &rng);
  EXPECT_FALSE(optimizer.Step(&net, 0.0).ok());
}

}  // namespace
}  // namespace dmlscale::nn
