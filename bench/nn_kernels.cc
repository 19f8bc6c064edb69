// google-benchmark comparison harness for the nn hot paths: naive scalar
// reference vs the GEMM-backed kernels (single thread), serial vs
// row-sharded GEMM, and serial vs batch-parallel training. The JSON output
// (--benchmark_format=json) is the repo's perf trajectory; BENCH_nn.json
// at the repo root is the checked-in baseline and CI uploads a fresh run
// as an artifact on every push.
//
// Headline acceptance metric: BM_Fig3ConvForward_Gemm must be >= 4x the
// items_per_second of BM_Fig3ConvForward_Naive (single thread, the 3x3
// 32->32-map 35x35 tower convolution of the paper's Fig. 3 CNN,
// Inception v3).

#include <benchmark/benchmark.h>

#include <memory>

#include "benchmark_main.h"
#include "common/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv_layer.h"
#include "nn/data.h"
#include "nn/dense_layer.h"
#include "nn/kernels.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/reference.h"
#include "nn/trainer.h"

namespace dmlscale {
namespace {

// Fig. 3 CNN (Inception v3) tower geometry: 3x3 convolution, 32 -> 32
// maps on a 35x35 plane. Batch 2 keeps the naive reference affordable.
constexpr int64_t kFig3Depth = 32;
constexpr int64_t kFig3Maps = 32;
constexpr int64_t kFig3Kernel = 3;
constexpr int64_t kFig3Side = 35;
constexpr int64_t kFig3Batch = 2;

struct ConvFixture {
  nn::Tensor input;
  std::unique_ptr<nn::Conv2dLayer> layer;
  nn::Tensor kernels;
  nn::Tensor bias;
  int64_t macs = 0;

  ConvFixture() : input({kFig3Batch, kFig3Depth, kFig3Side, kFig3Side}) {
    Pcg32 rng(1);
    input.FillGaussian(1.0, &rng);
    layer = nn::Conv2dLayer::Create(kFig3Depth, kFig3Maps, kFig3Kernel,
                                    kFig3Side, /*stride=*/1, /*pad=*/0, &rng)
                .value();
    kernels = *layer->Parameters()[0];
    bias = *layer->Parameters()[1];
    macs = kFig3Batch * layer->ForwardMultiplyAddsPerExample();
  }
};

void BM_Fig3ConvForward_Naive(benchmark::State& state) {
  ConvFixture fx;
  for (auto _ : state) {
    nn::Tensor out =
        nn::reference::NaiveConvForward(fx.input, fx.kernels, fx.bias,
                                        /*stride=*/1, /*pad=*/0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.macs);
}
BENCHMARK(BM_Fig3ConvForward_Naive);

void BM_Fig3ConvForward_Gemm(benchmark::State& state) {
  ConvFixture fx;
  nn::Tensor out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.layer->ForwardInto(fx.input, &out).ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.macs);
}
BENCHMARK(BM_Fig3ConvForward_Gemm);

void BM_Fig3ConvBackward_Naive(benchmark::State& state) {
  ConvFixture fx;
  nn::Tensor grad_out({kFig3Batch, kFig3Maps, fx.layer->output_side(),
                       fx.layer->output_side()});
  Pcg32 rng(2);
  grad_out.FillGaussian(1.0, &rng);
  nn::Tensor gk(fx.kernels.shape());
  nn::Tensor gb(fx.bias.shape());
  for (auto _ : state) {
    nn::Tensor gi = nn::reference::NaiveConvBackward(
        fx.input, fx.kernels, grad_out, /*stride=*/1, /*pad=*/0, &gk, &gb);
    benchmark::DoNotOptimize(gi.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * fx.macs);
}
BENCHMARK(BM_Fig3ConvBackward_Naive);

void BM_Fig3ConvBackward_Gemm(benchmark::State& state) {
  ConvFixture fx;
  nn::Tensor out, grad_in;
  benchmark::DoNotOptimize(fx.layer->ForwardInto(fx.input, &out).ok());
  nn::Tensor grad_out(out.shape());
  Pcg32 rng(2);
  grad_out.FillGaussian(1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.layer->BackwardInto(grad_out, &grad_in).ok());
    benchmark::DoNotOptimize(grad_in.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * fx.macs);
}
BENCHMARK(BM_Fig3ConvBackward_Gemm);

// Dense layer on the paper's MNIST ANN geometry (784 -> 2500, Table I),
// batch 32.
void BM_DenseForward_Naive(benchmark::State& state) {
  Pcg32 rng(3);
  nn::DenseLayer layer(784, 2500, &rng);
  nn::Tensor input({32, 784});
  input.FillGaussian(1.0, &rng);
  for (auto _ : state) {
    nn::Tensor out = nn::reference::NaiveDenseForward(
        input, *layer.Parameters()[0], *layer.Parameters()[1]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 32 *
                          layer.ForwardMultiplyAddsPerExample());
}
BENCHMARK(BM_DenseForward_Naive);

void BM_DenseForward_Gemm(benchmark::State& state) {
  Pcg32 rng(3);
  nn::DenseLayer layer(784, 2500, &rng);
  nn::Tensor input({32, 784});
  input.FillGaussian(1.0, &rng);
  nn::Tensor out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.ForwardInto(input, &out).ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 32 *
                          layer.ForwardMultiplyAddsPerExample());
}
BENCHMARK(BM_DenseForward_Gemm);

// Raw GEMM row-sharding scaling harness (shard count = state arg; on a
// single-core host this measures sharding overhead, on multi-core hosts
// near-linear scaling — results are bit-identical either way).
void BM_GemmRowSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int64_t m = 256, n = 256, k = 256;
  Pcg32 rng(4);
  nn::Tensor a({m, k}), b({k, n}), c({m, n});
  a.FillGaussian(1.0, &rng);
  b.FillGaussian(1.0, &rng);
  ThreadPool pool(static_cast<size_t>(shards > 0 ? shards : 1));
  for (auto _ : state) {
    if (shards <= 1) {
      nn::kernels::Gemm(nn::kernels::Trans::kNo, nn::kernels::Trans::kNo, m,
                        n, k, 1.0, a.data(), k, b.data(), n, 0.0, c.data(),
                        n);
    } else {
      nn::kernels::GemmParallel(&pool, shards, nn::kernels::Trans::kNo,
                                nn::kernels::Trans::kNo, m, n, k, 1.0,
                                a.data(), k, b.data(), n, 0.0, c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmRowSharded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// One epoch of conv-net training; thread count = state arg. Every row runs
// the same program — four gradient shards per 32-example batch plus their
// ordered reduction — so the rows differ only in how many threads execute
// the shards. Also reports the steady-state tensor allocations per epoch
// (must be 0 — the batch buffers, shard slices, and im2col scratch are all
// reused).
void BM_TrainConvNetEpoch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Pcg32 data_rng(5);
  nn::Dataset data = nn::SyntheticImages(128, 12, 2, 0.2, &data_rng).value();
  Pcg32 net_rng(6);
  nn::Network net;
  net.Add(std::make_unique<nn::Conv2dLayer>(1, 8, 3, 12, 1, 1, &net_rng));
  net.Add(std::make_unique<nn::ReluLayer>());
  net.Add(std::make_unique<nn::MaxPool2dLayer>(2, 12, 8));
  net.Add(std::make_unique<nn::FlattenLayer>());
  net.Add(std::make_unique<nn::DenseLayer>(8 * 6 * 6, 2, &net_rng));
  nn::SoftmaxCrossEntropyLoss loss;
  nn::SgdOptimizer optimizer(0.1);
  Pcg32 shuffle_rng(7);
  nn::TrainerOptions options{.epochs = 1,
                             .batch_size = 32,
                             .shuffle = true,
                             .threads = threads,
                             .shards_per_batch = 4};
  int64_t allocs_delta = 0;
  int64_t iters = 0;
  for (auto _ : state) {
    int64_t before = nn::Tensor::HeapAllocationCount();
    auto history = nn::TrainMiniBatches(&net, data, loss, &optimizer,
                                        options, &shuffle_rng);
    benchmark::DoNotOptimize(history.ok());
    allocs_delta += nn::Tensor::HeapAllocationCount() - before;
    ++iters;
  }
  state.SetItemsProcessed(state.iterations() * data.num_examples());
  // Per-call allocations stay constant (setup only); per extra epoch they
  // are zero — asserted bitwise in tests/nn/kernels_test.cc.
  state.counters["tensor_allocs_per_call"] =
      iters > 0 ? static_cast<double>(allocs_delta) / iters : 0.0;
}
BENCHMARK(BM_TrainConvNetEpoch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace dmlscale

int main(int argc, char** argv) {
  return dmlscale::bench::RunBenchmarks(argc, argv);
}
