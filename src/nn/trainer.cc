#include "nn/trainer.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/thread_pool.h"
#include "engine/parallel_for.h"

namespace dmlscale::nn {

namespace {

/// Gathers the rows of `data` at `order` into `*out`, reusing its buffers.
Status PermuteInto(const Dataset& data, const std::vector<int64_t>& order,
                   Dataset* out) {
  int64_t per_feature = data.features.size() / data.num_examples();
  int64_t per_target = data.targets.size() / data.num_examples();
  out->features.ResizeTo(data.features.shape());
  out->targets.ResizeTo(data.targets.shape());
  for (size_t i = 0; i < order.size(); ++i) {
    int64_t src = order[i];
    int64_t dst = static_cast<int64_t>(i);
    std::copy(data.features.data() + src * per_feature,
              data.features.data() + (src + 1) * per_feature,
              out->features.data() + dst * per_feature);
    std::copy(data.targets.data() + src * per_target,
              data.targets.data() + (src + 1) * per_target,
              out->targets.data() + dst * per_target);
  }
  return Status::OK();
}

int64_t NumShards(int64_t batch_len, const TrainerOptions& options) {
  return std::max<int64_t>(1, std::min(options.shards_per_batch, batch_len));
}

}  // namespace

Result<TrainingHistory> TrainMiniBatches(Network* network,
                                         const Dataset& data,
                                         const Loss& loss,
                                         SgdOptimizer* optimizer,
                                         const TrainerOptions& options,
                                         Pcg32* rng) {
  if (network == nullptr || optimizer == nullptr) {
    return Status::InvalidArgument("null network or optimizer");
  }
  if (data.num_examples() < 1) return Status::InvalidArgument("empty data");
  if (options.epochs < 1) return Status::InvalidArgument("epochs must be >= 1");
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  DMLSCALE_RETURN_NOT_OK(ValidateThreadCount("threads", options.threads));
  if (options.shards_per_batch < 0) {
    return Status::InvalidArgument("shards_per_batch must be >= 0");
  }
  if (options.shuffle && rng == nullptr) {
    return Status::InvalidArgument("shuffle requires an rng");
  }

  int64_t examples = data.num_examples();
  std::vector<int64_t> order(static_cast<size_t>(examples));
  std::iota(order.begin(), order.end(), 0);

  // Shard boundaries depend on batch length and shard count only — NOT on
  // options.threads — so any thread count reproduces the serial result
  // bit for bit. The largest (first) batch bounds the replica count.
  const int64_t max_shards =
      NumShards(std::min(options.batch_size, examples), options);
  if (options.threads > 1 && max_shards <= 1) {
    return Status::InvalidArgument(
        "threads > 1 requires multiple gradient shards per batch, but "
        "shards_per_batch=" + std::to_string(options.shards_per_batch) +
        " yields one shard for batches of " +
        std::to_string(std::min(options.batch_size, examples)) +
        "; the request would be silently serial");
  }

  // One-time allocations; everything below the epoch loop reuses them.
  Dataset epoch_data{Tensor({0}), Tensor({0})};
  Dataset batch_buf{Tensor({0}), Tensor({0})};
  std::vector<Network> replicas;
  std::vector<Dataset> shard_bufs;
  std::vector<double> shard_loss;
  std::vector<Status> shard_status;
  std::unique_ptr<ThreadPool> pool;
  if (max_shards > 1) {
    replicas.reserve(static_cast<size_t>(max_shards));
    for (int64_t s = 0; s < max_shards; ++s) {
      replicas.push_back(network->Clone());
    }
    for (int64_t s = 0; s < max_shards; ++s) {
      shard_bufs.push_back(Dataset{Tensor({0}), Tensor({0})});
    }
    shard_loss.assign(static_cast<size_t>(max_shards), 0.0);
    shard_status.assign(static_cast<size_t>(max_shards), Status::OK());
    if (options.threads > 1) {
      pool = std::make_unique<ThreadPool>(
          static_cast<size_t>(options.threads));
    }
  }

  TrainingHistory history;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const Dataset* source = &data;
    if (options.shuffle) {
      rng->Shuffle(&order);
      DMLSCALE_RETURN_NOT_OK(PermuteInto(data, order, &epoch_data));
      source = &epoch_data;
    }
    double loss_sum = 0.0;
    int64_t batches = 0;
    for (int64_t begin = 0; begin < examples; begin += options.batch_size) {
      int64_t end = std::min(begin + options.batch_size, examples);
      int64_t shards = NumShards(end - begin, options);
      if (shards <= 1) {
        DMLSCALE_RETURN_NOT_OK(source->CopySliceInto(begin, end, &batch_buf));
        DMLSCALE_ASSIGN_OR_RETURN(
            double batch_loss,
            TrainBatch(network, batch_buf.features, batch_buf.targets, loss,
                       optimizer));
        loss_sum += batch_loss;
        ++batches;
        ++history.total_batches;
        history.bottleneck_examples += end - begin;
        continue;
      }

      // Slice and broadcast on the main thread (deterministic, and the
      // replicas' scratch stays thread-private).
      for (int64_t s = 0; s < shards; ++s) {
        auto range = engine::ComputeShard(begin, end,
                                          static_cast<int>(shards),
                                          static_cast<int>(s));
        DMLSCALE_RETURN_NOT_OK(
            source->CopySliceInto(range.begin, range.end,
                                  &shard_bufs[static_cast<size_t>(s)]));
        Network& replica = replicas[static_cast<size_t>(s)];
        DMLSCALE_RETURN_NOT_OK(replica.CopyParametersFrom(*network));
        replica.ZeroGradients();
      }

      auto run_shard = [&](int64_t s) {
        Network& replica = replicas[static_cast<size_t>(s)];
        const Dataset& shard = shard_bufs[static_cast<size_t>(s)];
        auto result =
            replica.ComputeGradients(shard.features, shard.targets, loss);
        if (!result.ok()) {
          shard_status[static_cast<size_t>(s)] = result.status();
          return;
        }
        shard_status[static_cast<size_t>(s)] = Status::OK();
        shard_loss[static_cast<size_t>(s)] = result.value();
      };
      if (pool != nullptr) {
        engine::ParallelFor(pool.get(), 0, shards,
                            static_cast<int>(shards),
                            [&](int, int64_t s0, int64_t s1) {
                              for (int64_t s = s0; s < s1; ++s) run_shard(s);
                            });
      } else {
        for (int64_t s = 0; s < shards; ++s) run_shard(s);
      }
      for (int64_t s = 0; s < shards; ++s) {
        DMLSCALE_RETURN_NOT_OK(shard_status[static_cast<size_t>(s)]);
      }

      // Ordered reduction: shard s contributes before shard s+1, weighted
      // by its share of the batch (replica losses/gradients are averages
      // over the shard).
      network->ZeroGradients();
      double batch_loss = 0.0;
      int64_t bottleneck = 0;
      for (int64_t s = 0; s < shards; ++s) {
        auto range = engine::ComputeShard(begin, end,
                                          static_cast<int>(shards),
                                          static_cast<int>(s));
        bottleneck = std::max(bottleneck, range.end - range.begin);
        double weight = static_cast<double>(range.end - range.begin) /
                        static_cast<double>(end - begin);
        DMLSCALE_RETURN_NOT_OK(network->AccumulateScaledGradientsFrom(
            replicas[static_cast<size_t>(s)], weight));
        batch_loss += shard_loss[static_cast<size_t>(s)] * weight;
      }
      DMLSCALE_RETURN_NOT_OK(optimizer->Step(network));
      loss_sum += batch_loss;
      ++batches;
      ++history.total_batches;
      history.bottleneck_examples += bottleneck;
      history.replica_reductions += shards;
    }
    history.epoch_loss.push_back(loss_sum / static_cast<double>(batches));
  }
  return history;
}

Result<double> EvaluateAccuracy(Network* network, const Dataset& data) {
  if (network == nullptr) return Status::InvalidArgument("null network");
  if (data.num_examples() < 1) return Status::InvalidArgument("empty data");
  DMLSCALE_ASSIGN_OR_RETURN(Tensor out, network->Forward(data.features));
  if (out.rank() != 2 || !out.SameShape(data.targets)) {
    return Status::InvalidArgument("output/target shape mismatch");
  }
  int64_t correct = 0;
  int64_t classes = out.dim(1);
  for (int64_t e = 0; e < out.dim(0); ++e) {
    int64_t pred = 0, truth = 0;
    for (int64_t c = 1; c < classes; ++c) {
      if (out.At2(e, c) > out.At2(e, pred)) pred = c;
      if (data.targets.At2(e, c) > data.targets.At2(e, truth)) truth = c;
    }
    if (pred == truth) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(out.dim(0));
}

}  // namespace dmlscale::nn
