#include "nn/trainer.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace dmlscale::nn {
namespace {

TEST(TrainerTest, MiniBatchTrainingReducesLoss) {
  // Serial, and as the synchronous data-parallel step (4 gradient shards
  // per batch on 2 threads).
  for (TrainerOptions options :
       {TrainerOptions{.epochs = 15, .batch_size = 32, .shuffle = true},
        TrainerOptions{.epochs = 15,
                       .batch_size = 32,
                       .shuffle = true,
                       .threads = 2,
                       .shards_per_batch = 4}}) {
    Pcg32 rng(1);
    auto data = SyntheticClassification(200, 6, 3, 0.3, &rng).value();
    Network net = Network::FullyConnected({6, 16, 3}, &rng);
    SoftmaxCrossEntropyLoss loss;
    SgdOptimizer optimizer(0.3);
    auto history =
        TrainMiniBatches(&net, data, loss, &optimizer, options, &rng);
    ASSERT_TRUE(history.ok()) << history.status();
    ASSERT_EQ(history->epoch_loss.size(), 15u);
    EXPECT_LT(history->final_loss(), history->epoch_loss.front() * 0.5)
        << "shards_per_batch=" << options.shards_per_batch;
  }
}

TEST(TrainerTest, AccuracyImprovesOverChance) {
  Pcg32 rng(2);
  auto data = SyntheticClassification(300, 8, 4, 0.25, &rng).value();
  Network net = Network::FullyConnected({8, 20, 4}, &rng);
  SoftmaxCrossEntropyLoss loss;
  SgdOptimizer optimizer(0.4);
  ASSERT_TRUE(TrainMiniBatches(&net, data, loss, &optimizer,
                               {.epochs = 25, .batch_size = 25}, &rng)
                  .ok());
  auto accuracy = EvaluateAccuracy(&net, data);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_GT(accuracy.value(), 0.75);  // chance = 0.25
}

TEST(TrainerTest, ShortFinalBatchHandled) {
  Pcg32 rng(3);
  auto data = SyntheticClassification(33, 4, 2, 0.3, &rng).value();
  Network net = Network::FullyConnected({4, 2}, &rng);
  SoftmaxCrossEntropyLoss loss;
  SgdOptimizer optimizer(0.1);
  // 33 examples in batches of 16 -> 16, 16, 1.
  auto history = TrainMiniBatches(&net, data, loss, &optimizer,
                                  {.epochs = 2, .batch_size = 16}, &rng);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->epoch_loss.size(), 2u);
}

TEST(TrainerTest, NoShuffleIsDeterministicWithoutRng) {
  Pcg32 rng(4);
  auto data = SyntheticClassification(40, 4, 2, 0.3, &rng).value();
  Network a = Network::FullyConnected({4, 4, 2}, &rng);
  Network b = a.Clone();
  SoftmaxCrossEntropyLoss loss;
  SgdOptimizer opt_a(0.2), opt_b(0.2);
  TrainerOptions options{.epochs = 3, .batch_size = 8, .shuffle = false};
  auto ha = TrainMiniBatches(&a, data, loss, &opt_a, options, nullptr);
  auto hb = TrainMiniBatches(&b, data, loss, &opt_b, options, nullptr);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  for (size_t e = 0; e < ha->epoch_loss.size(); ++e) {
    EXPECT_DOUBLE_EQ(ha->epoch_loss[e], hb->epoch_loss[e]);
  }
}

TEST(TrainerTest, ShuffleChangesBatchOrderNotOutcomeQuality) {
  Pcg32 rng(5);
  auto data = SyntheticClassification(100, 5, 2, 0.3, &rng).value();
  SoftmaxCrossEntropyLoss loss;
  for (bool shuffle : {false, true}) {
    Pcg32 net_rng(6);
    Network net = Network::FullyConnected({5, 10, 2}, &net_rng);
    SgdOptimizer optimizer(0.3);
    Pcg32 shuffle_rng(7);
    auto history = TrainMiniBatches(
        &net, data, loss, &optimizer,
        {.epochs = 10, .batch_size = 20, .shuffle = shuffle}, &shuffle_rng);
    ASSERT_TRUE(history.ok());
    EXPECT_LT(history->final_loss(), history->epoch_loss.front());
  }
}

TEST(TrainerTest, ShardsPerBatchYieldsExactCountsAndCounters) {
  // Exactly 6 shards of a 10-example batch: ComputeShard splits 10 over 6
  // as 2,2,2,2,1,1 -> bottleneck 2 per batch.
  Pcg32 rng(5);
  auto data = SyntheticClassification(20, 4, 2, 0.3, &rng).value();
  Network net = Network::FullyConnected({4, 6, 2}, &rng);
  SoftmaxCrossEntropyLoss loss;
  SgdOptimizer optimizer(0.1);
  auto history = TrainMiniBatches(
      &net, data, loss, &optimizer,
      {.epochs = 1, .batch_size = 10, .shuffle = false,
       .shards_per_batch = 6},
      nullptr);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->total_batches, 2);
  EXPECT_EQ(history->replica_reductions, 12);  // 6 shards x 2 batches
  EXPECT_EQ(history->bottleneck_examples, 4);  // 2 per batch

  // The count is capped at the batch length (never empty shards), and
  // single-shard training leaves the reduction counter at zero.
  Network capped = Network::FullyConnected({4, 6, 2}, &rng);
  auto capped_history = TrainMiniBatches(
      &capped, data, loss, &optimizer,
      {.epochs = 1, .batch_size = 4, .shuffle = false,
       .shards_per_batch = 99},
      nullptr);
  ASSERT_TRUE(capped_history.ok());
  EXPECT_EQ(capped_history->replica_reductions, 20);  // 4+4+4+4+4
  EXPECT_EQ(capped_history->bottleneck_examples, 5);  // 1 per batch

  Network serial = Network::FullyConnected({4, 6, 2}, &rng);
  auto serial_history = TrainMiniBatches(
      &serial, data, loss, &optimizer,
      {.epochs = 1, .batch_size = 10, .shuffle = false}, nullptr);
  ASSERT_TRUE(serial_history.ok());
  EXPECT_EQ(serial_history->total_batches, 2);
  EXPECT_EQ(serial_history->replica_reductions, 0);
  EXPECT_EQ(serial_history->bottleneck_examples, 20);

  EXPECT_FALSE(TrainMiniBatches(&serial, data, loss, &optimizer,
                                {.epochs = 1, .batch_size = 10,
                                 .shuffle = false, .shards_per_batch = -1},
                                nullptr)
                   .ok());
}

TEST(TrainerTest, RejectsBadArguments) {
  Pcg32 rng(8);
  auto data = SyntheticClassification(10, 3, 2, 0.3, &rng).value();
  Network net = Network::FullyConnected({3, 2}, &rng);
  SoftmaxCrossEntropyLoss loss;
  SgdOptimizer optimizer(0.1);
  EXPECT_FALSE(TrainMiniBatches(nullptr, data, loss, &optimizer, {}, &rng).ok());
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, nullptr, {}, &rng).ok());
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, &optimizer,
                                {.epochs = 0}, &rng)
                   .ok());
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, &optimizer,
                                {.batch_size = 0}, &rng)
                   .ok());
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, &optimizer,
                                {.shuffle = true}, nullptr)
                   .ok());
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, &optimizer,
                                {.threads = 0}, &rng)
                   .ok());
  // Two shards per batch pass the single-shard check below, so only the
  // thread bound stands between this request and a 257-thread pool.
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, &optimizer,
                                {.threads = kMaxThreads + 1,
                                 .shards_per_batch = 2},
                                &rng)
                   .ok());
  // threads > 1 with single-shard batches would silently run serially;
  // it must be rejected instead — both with the default shard count and
  // with shards that the batch length caps to one.
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, &optimizer,
                                {.threads = 4}, &rng)
                   .ok());
  EXPECT_FALSE(TrainMiniBatches(&net, data, loss, &optimizer,
                                {.batch_size = 1, .threads = 4,
                                 .shards_per_batch = 4},
                                &rng)
                   .ok());
  Dataset empty{Tensor({0, 3}), Tensor({0, 2})};
  EXPECT_FALSE(
      TrainMiniBatches(&net, empty, loss, &optimizer, {}, &rng).ok());
  EXPECT_FALSE(EvaluateAccuracy(nullptr, data).ok());
}

}  // namespace
}  // namespace dmlscale::nn
