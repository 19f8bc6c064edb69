#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv_layer.h"
#include "nn/data.h"
#include "nn/dense_layer.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/reference.h"
#include "nn/trainer.h"

namespace dmlscale::nn {
namespace {

using kernels::Trans;

Tensor RandomTensor(std::vector<int64_t> shape, Pcg32* rng) {
  Tensor t(std::move(shape));
  t.FillGaussian(1.0, rng);
  return t;
}

// ---------------------------------------------------------------------------
// GEMM vs the naive triple loop, across all transpose combinations,
// randomized shapes (including sizes straddling the block boundaries), and
// alpha/beta variants.

void CheckGemmCase(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k,
                   double alpha, double beta, Pcg32* rng) {
  Tensor a(ta == Trans::kNo ? std::vector<int64_t>{m, k}
                            : std::vector<int64_t>{k, m});
  Tensor b(tb == Trans::kNo ? std::vector<int64_t>{k, n}
                            : std::vector<int64_t>{n, k});
  a.FillGaussian(1.0, rng);
  b.FillGaussian(1.0, rng);
  Tensor c({m, n});
  c.FillGaussian(1.0, rng);
  Tensor expected = c;

  int64_t lda = a.dim(1), ldb = b.dim(1);
  kernels::Gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                c.data(), n);
  reference::NaiveGemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                       beta, expected.data(), n);
  for (int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-9)
        << "ta=" << (ta == Trans::kTrans) << " tb=" << (tb == Trans::kTrans)
        << " m=" << m << " n=" << n << " k=" << k << " i=" << i;
  }
}

TEST(GemmTest, MatchesNaiveAcrossTransCombosAndShapes) {
  Pcg32 rng(1);
  const std::vector<std::vector<int64_t>> shapes = {
      {1, 1, 1},  {3, 5, 7},   {16, 16, 16}, {65, 33, 17},
      {7, 270, 9}, {2, 3, 300}, {70, 5, 260},
  };
  for (Trans ta : {Trans::kNo, Trans::kTrans}) {
    for (Trans tb : {Trans::kNo, Trans::kTrans}) {
      for (const auto& s : shapes) {
        CheckGemmCase(ta, tb, s[0], s[1], s[2], 1.0, 0.0, &rng);
      }
    }
  }
}

TEST(GemmTest, HonorsAlphaAndBeta) {
  Pcg32 rng(2);
  for (double alpha : {1.0, -0.5, 2.25}) {
    for (double beta : {0.0, 1.0, 0.5}) {
      CheckGemmCase(Trans::kNo, Trans::kNo, 9, 11, 13, alpha, beta, &rng);
      CheckGemmCase(Trans::kTrans, Trans::kNo, 9, 11, 13, alpha, beta, &rng);
    }
  }
}

TEST(GemmTest, BetaZeroOverwritesGarbage) {
  // beta == 0 must behave as an overwrite even when C holds NaN.
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {1, 0, 0, 1});
  Tensor c({2, 2});
  c.Fill(std::nan(""));
  kernels::Gemm(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0, a.data(), 2, b.data(),
                2, 0.0, c.data(), 2);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[3], 4.0);
}

TEST(GemmTest, ParallelIsBitIdenticalToSerialForAnyShardCount) {
  Pcg32 rng(3);
  ThreadPool pool(4);
  for (Trans ta : {Trans::kNo, Trans::kTrans}) {
    const int64_t m = 37, n = 29, k = 300;
    Tensor a(ta == Trans::kNo ? std::vector<int64_t>{m, k}
                              : std::vector<int64_t>{k, m});
    Tensor b({k, n});
    a.FillGaussian(1.0, &rng);
    b.FillGaussian(1.0, &rng);
    Tensor serial({m, n});
    kernels::Gemm(ta, Trans::kNo, m, n, k, 1.0, a.data(), a.dim(1), b.data(),
                  n, 0.0, serial.data(), n);
    for (int shards : {1, 2, 3, 4}) {
      Tensor parallel({m, n});
      parallel.Fill(-1.0);
      kernels::GemmParallel(&pool, shards, ta, Trans::kNo, m, n, k, 1.0,
                            a.data(), a.dim(1), b.data(), n, 0.0,
                            parallel.data(), n);
      for (int64_t i = 0; i < serial.size(); ++i) {
        // Bitwise identity, not tolerance: row sharding must not change a
        // single rounding.
        EXPECT_EQ(serial[i], parallel[i]) << "shards=" << shards;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// im2col / col2im.

TEST(Im2ColTest, MatchesDirectGather) {
  Pcg32 rng(4);
  for (auto [side, kernel, stride, pad] :
       std::vector<std::array<int64_t, 4>>{
           {6, 3, 1, 0}, {6, 3, 1, 1}, {7, 3, 2, 0}, {8, 2, 2, 0},
           {5, 5, 1, 2},
           // Regression: pad >= kernel makes some kernel columns miss the
           // input entirely (the valid range is empty); this used to
           // overflow the cols row.
           {2, 8, 1, 4}}) {
    kernels::Conv2dGeometry g{
        .depth = 3, .side = side, .kernel = kernel, .stride = stride,
        .pad = pad};
    ASSERT_TRUE(g.WindowsTileInput());
    Tensor image = RandomTensor({g.depth, side, side}, &rng);
    std::vector<double> cols(static_cast<size_t>(g.patch() * g.out_area()),
                             -7.0);
    kernels::Im2Col(g, image.data(), cols.data());
    int64_t os = g.out_side();
    for (int64_t d = 0; d < g.depth; ++d) {
      for (int64_t kr = 0; kr < kernel; ++kr) {
        for (int64_t kc = 0; kc < kernel; ++kc) {
          for (int64_t orow = 0; orow < os; ++orow) {
            for (int64_t ocol = 0; ocol < os; ++ocol) {
              int64_t irow = orow * stride + kr - pad;
              int64_t icol = ocol * stride + kc - pad;
              double expected = 0.0;
              if (irow >= 0 && irow < side && icol >= 0 && icol < side) {
                expected = image[(d * side + irow) * side + icol];
              }
              int64_t row = (d * kernel + kr) * kernel + kc;
              ASSERT_DOUBLE_EQ(
                  cols[static_cast<size_t>(row * os * os + orow * os + ocol)],
                  expected)
                  << "side=" << side << " k=" << kernel << " s=" << stride
                  << " pad=" << pad;
            }
          }
        }
      }
    }
  }
}

TEST(Col2ImTest, IsAdjointOfIm2Col) {
  // <Im2Col(x), y> == <x, Col2Im(y)> for random x, y — the defining
  // property of the backward lowering.
  Pcg32 rng(5);
  kernels::Conv2dGeometry g{
      .depth = 2, .side = 7, .kernel = 3, .stride = 2, .pad = 1};
  ASSERT_TRUE(g.WindowsTileInput());
  int64_t cols_size = g.patch() * g.out_area();
  Tensor x = RandomTensor({g.depth, g.side, g.side}, &rng);
  std::vector<double> cols(static_cast<size_t>(cols_size));
  kernels::Im2Col(g, x.data(), cols.data());
  std::vector<double> y(static_cast<size_t>(cols_size));
  for (auto& v : y) v = rng.NextGaussian(0.0, 1.0);
  Tensor back({g.depth, g.side, g.side});
  kernels::Col2Im(g, y.data(), back.data());
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols_size; ++i) {
    lhs += cols[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
  }
  for (int64_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

// ---------------------------------------------------------------------------
// Layer equivalence: the GEMM-backed layers must match the scalar
// reference implementations within 1e-9, forward and backward, over
// randomized shapes.

TEST(KernelEquivalenceTest, DenseMatchesReference) {
  Pcg32 shape_rng(6);
  for (int trial = 0; trial < 8; ++trial) {
    int64_t batch = 1 + shape_rng.NextBounded(40);
    int64_t inputs = 1 + shape_rng.NextBounded(70);
    int64_t outputs = 1 + shape_rng.NextBounded(70);
    Pcg32 rng(100 + trial);
    DenseLayer layer(inputs, outputs, &rng);
    Tensor input = RandomTensor({batch, inputs}, &rng);
    auto out = layer.Forward(input);
    ASSERT_TRUE(out.ok());
    Tensor expected = reference::NaiveDenseForward(
        input, *layer.Parameters()[0], *layer.Parameters()[1]);
    ASSERT_TRUE(expected.SameShape(*out));
    for (int64_t i = 0; i < out->size(); ++i) {
      ASSERT_NEAR((*out)[i], expected[i], 1e-9) << "trial " << trial;
    }

    Tensor grad_out = RandomTensor({batch, outputs}, &rng);
    layer.ZeroGradients();
    auto grad_in = layer.Backward(grad_out);
    ASSERT_TRUE(grad_in.ok());
    Tensor ref_gw(layer.Parameters()[0]->shape());
    Tensor ref_gb(layer.Parameters()[1]->shape());
    Tensor ref_gi = reference::NaiveDenseBackward(
        input, *layer.Parameters()[0], grad_out, &ref_gw, &ref_gb);
    for (int64_t i = 0; i < ref_gi.size(); ++i) {
      ASSERT_NEAR((*grad_in)[i], ref_gi[i], 1e-9);
    }
    for (int64_t i = 0; i < ref_gw.size(); ++i) {
      ASSERT_NEAR((*layer.Gradients()[0])[i], ref_gw[i], 1e-9);
    }
    for (int64_t i = 0; i < ref_gb.size(); ++i) {
      ASSERT_NEAR((*layer.Gradients()[1])[i], ref_gb[i], 1e-9);
    }
  }
}

TEST(KernelEquivalenceTest, ConvMatchesReference) {
  const std::vector<std::array<int64_t, 6>> cases = {
      // depth, maps, kernel, side, stride, pad
      {1, 2, 3, 8, 1, 1}, {3, 4, 3, 9, 2, 0}, {2, 3, 5, 11, 3, 0},
      {4, 2, 1, 6, 1, 0}, {2, 5, 3, 7, 2, 1},
      // Regression: padding wider than the kernel's reach (see Im2Col).
      {1, 2, 8, 2, 1, 4},
  };
  for (size_t t = 0; t < cases.size(); ++t) {
    auto [depth, maps, kernel, side, stride, pad] = cases[t];
    Pcg32 rng(200 + static_cast<uint64_t>(t));
    auto layer =
        Conv2dLayer::Create(depth, maps, kernel, side, stride, pad, &rng);
    ASSERT_TRUE(layer.ok()) << "case " << t;
    int64_t batch = 1 + static_cast<int64_t>(t % 3);
    Tensor input = RandomTensor({batch, depth, side, side}, &rng);
    auto out = (*layer)->Forward(input);
    ASSERT_TRUE(out.ok());
    Tensor expected = reference::NaiveConvForward(
        input, *(*layer)->Parameters()[0], *(*layer)->Parameters()[1],
        stride, pad);
    ASSERT_TRUE(expected.SameShape(*out)) << "case " << t;
    for (int64_t i = 0; i < out->size(); ++i) {
      ASSERT_NEAR((*out)[i], expected[i], 1e-9) << "case " << t;
    }

    Tensor grad_out = RandomTensor(expected.shape(), &rng);
    (*layer)->ZeroGradients();
    auto grad_in = (*layer)->Backward(grad_out);
    ASSERT_TRUE(grad_in.ok());
    Tensor ref_gk((*layer)->Parameters()[0]->shape());
    Tensor ref_gb((*layer)->Parameters()[1]->shape());
    Tensor ref_gi = reference::NaiveConvBackward(
        input, *(*layer)->Parameters()[0], grad_out, stride, pad, &ref_gk,
        &ref_gb);
    for (int64_t i = 0; i < ref_gi.size(); ++i) {
      ASSERT_NEAR((*grad_in)[i], ref_gi[i], 1e-9) << "case " << t;
    }
    for (int64_t i = 0; i < ref_gk.size(); ++i) {
      ASSERT_NEAR((*(*layer)->Gradients()[0])[i], ref_gk[i], 1e-9)
          << "case " << t;
    }
    for (int64_t i = 0; i < ref_gb.size(); ++i) {
      ASSERT_NEAR((*(*layer)->Gradients()[1])[i], ref_gb[i], 1e-9)
          << "case " << t;
    }
  }
}

TEST(KernelEquivalenceTest, MaxPoolMatchesReference) {
  Pcg32 rng(7);
  for (auto [window, side, depth] : std::vector<std::array<int64_t, 3>>{
           {2, 8, 3}, {3, 9, 2}, {4, 8, 1}}) {
    MaxPool2dLayer layer(window, side, depth);
    Tensor input = RandomTensor({2, depth, side, side}, &rng);
    auto out = layer.Forward(input);
    ASSERT_TRUE(out.ok());
    std::vector<int64_t> ref_argmax;
    Tensor expected =
        reference::NaiveMaxPoolForward(input, window, &ref_argmax);
    ASSERT_TRUE(expected.SameShape(*out));
    for (int64_t i = 0; i < out->size(); ++i) {
      // Max selection is exact, so demand bitwise equality.
      ASSERT_EQ((*out)[i], expected[i]);
    }
    // Backward routes through the same argmax as the reference.
    Tensor grad_out = RandomTensor(expected.shape(), &rng);
    auto grad_in = layer.Backward(grad_out);
    ASSERT_TRUE(grad_in.ok());
    Tensor ref_gi(input.shape());
    for (int64_t i = 0; i < grad_out.size(); ++i) {
      ref_gi[ref_argmax[static_cast<size_t>(i)]] += grad_out[i];
    }
    for (int64_t i = 0; i < ref_gi.size(); ++i) {
      ASSERT_EQ((*grad_in)[i], ref_gi[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-parallel trainer: bit-identical histories and parameters across
// thread counts, and zero steady-state allocations.

struct TrainRun {
  TrainingHistory history;
  std::vector<double> final_params;
};

TrainRun TrainConvNet(int threads, int64_t shards, int epochs) {
  Pcg32 data_rng(11);
  Dataset data = SyntheticImages(48, 8, 2, 0.2, &data_rng).value();
  Pcg32 net_rng(12);
  Network net;
  net.Add(std::make_unique<Conv2dLayer>(1, 4, 3, 8, 1, 1, &net_rng));
  net.Add(std::make_unique<ReluLayer>());
  net.Add(std::make_unique<MaxPool2dLayer>(2, 8, 4));
  net.Add(std::make_unique<FlattenLayer>());
  net.Add(std::make_unique<DenseLayer>(4 * 4 * 4, 2, &net_rng));
  SoftmaxCrossEntropyLoss loss;
  SgdOptimizer optimizer(0.3);
  Pcg32 shuffle_rng(13);
  TrainerOptions options{.epochs = epochs,
                         .batch_size = 16,
                         .shuffle = true,
                         .threads = threads,
                         .shards_per_batch = shards};
  auto history =
      TrainMiniBatches(&net, data, loss, &optimizer, options, &shuffle_rng);
  EXPECT_TRUE(history.ok()) << history.status();
  TrainRun run;
  run.history = *history;
  for (Tensor* p : net.Parameters()) {
    for (int64_t i = 0; i < p->size(); ++i) {
      run.final_params.push_back((*p)[i]);
    }
  }
  return run;
}

TEST(ThreadedTrainerTest, HistoryAndParametersBitIdenticalAcrossThreads) {
  TrainRun serial = TrainConvNet(/*threads=*/1, /*shards=*/4, /*epochs=*/3);
  for (int threads : {2, 4}) {
    TrainRun threaded = TrainConvNet(threads, /*shards=*/4, /*epochs=*/3);
    ASSERT_EQ(serial.history.epoch_loss.size(),
              threaded.history.epoch_loss.size());
    for (size_t e = 0; e < serial.history.epoch_loss.size(); ++e) {
      // Bitwise, not tolerance: fixed shard boundaries + ordered
      // reduction must make threading invisible to the numerics.
      EXPECT_EQ(serial.history.epoch_loss[e], threaded.history.epoch_loss[e])
          << "threads=" << threads << " epoch=" << e;
    }
    ASSERT_EQ(serial.final_params.size(), threaded.final_params.size());
    for (size_t i = 0; i < serial.final_params.size(); ++i) {
      ASSERT_EQ(serial.final_params[i], threaded.final_params[i])
          << "threads=" << threads;
    }
  }
}

TEST(ThreadedTrainerTest, ShardedLossMatchesUnshardedWithinTolerance) {
  // Synchronous data-parallel SGD is batch SGD for any shard count:
  // sharding changes only the summation order, so losses and final
  // parameters differ from the single-shard run in the last bits.
  TrainRun whole = TrainConvNet(1, /*shards=*/1, /*epochs=*/2);
  for (int64_t shards : {2, 3, 8}) {
    TrainRun sharded = TrainConvNet(1, shards, /*epochs=*/2);
    ASSERT_EQ(whole.history.epoch_loss.size(),
              sharded.history.epoch_loss.size());
    for (size_t e = 0; e < whole.history.epoch_loss.size(); ++e) {
      EXPECT_NEAR(whole.history.epoch_loss[e], sharded.history.epoch_loss[e],
                  1e-9)
          << "shards=" << shards << " epoch=" << e;
    }
    ASSERT_EQ(whole.final_params.size(), sharded.final_params.size());
    for (size_t i = 0; i < whole.final_params.size(); ++i) {
      ASSERT_NEAR(whole.final_params[i], sharded.final_params[i], 1e-9)
          << "shards=" << shards << " param=" << i;
    }
  }
}

int64_t AllocationsForEpochs(int epochs, int threads, int64_t shards) {
  int64_t before = Tensor::HeapAllocationCount();
  TrainConvNet(threads, shards, epochs);
  return Tensor::HeapAllocationCount() - before;
}

TEST(ThreadedTrainerTest, SteadyStateTrainingAllocatesNothing) {
  for (auto [threads, shards] :
       std::vector<std::pair<int, int64_t>>{{1, 1}, {1, 4}, {2, 4}}) {
    // Warm-up run so one-time lazy allocations (gtest, libc) are paid.
    AllocationsForEpochs(1, threads, shards);
    int64_t one_epoch = AllocationsForEpochs(1, threads, shards);
    int64_t four_epochs = AllocationsForEpochs(4, threads, shards);
    // Every allocation happens during setup (replicas, scratch warm-up,
    // first batch); three additional epochs must not allocate a single
    // tensor buffer.
    EXPECT_EQ(one_epoch, four_epochs)
        << "threads=" << threads << " shards=" << shards;
  }
}

}  // namespace
}  // namespace dmlscale::nn
