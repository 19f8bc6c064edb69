#ifndef DMLSCALE_NN_TRAINER_H_
#define DMLSCALE_NN_TRAINER_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "nn/data.h"
#include "nn/network.h"
#include "nn/optimizer.h"

namespace dmlscale::nn {

/// Mini-batch SGD training loop: per epoch, shuffles example order, slices
/// mini-batches, and applies one optimizer step per batch — the
/// single-node baseline whose distributed counterparts the scalability
/// models describe.
///
/// Intra-batch data parallelism — the synchronous data-parallel step the
/// Section IV-A model prices: every mini-batch is split into
/// `shards_per_batch` fixed shards (capped at the batch length); each
/// shard's gradients are computed on a private network replica
/// (concurrently when `threads > 1`) and reduced into the master in
/// ascending shard order. Because shard boundaries depend only on the batch
/// length and the shard count — never on `threads` — and the reduction
/// order is fixed, results are bit-identical for every thread count (the
/// same determinism discipline as the sweep engine).
///
/// All per-epoch buffers (shuffled copy, mini-batch/shard slices, network
/// scratch) are allocated once and reused, so steady-state training
/// performs zero tensor-buffer allocations — asserted in tests via
/// Tensor::HeapAllocationCount().
struct TrainerOptions {
  int epochs = 10;
  int64_t batch_size = 32;
  /// Shuffle example order each epoch (deterministic via the given rng).
  bool shuffle = true;
  /// Worker threads executing gradient shards, in [1, kMaxThreads]. Affects
  /// wall-clock only, never results. threads > 1 requires more than one
  /// shard per batch (rejected otherwise — a single shard cannot run
  /// concurrently).
  int threads = 1;
  /// Gradient shards per mini-batch, capped at the batch length; 0 and 1
  /// both mean one shard (the classic serial semantics). Changing the count
  /// changes floating-point summation order (not correctness).
  int64_t shards_per_batch = 1;
};

struct TrainingHistory {
  /// Mean per-batch loss of each epoch.
  std::vector<double> epoch_loss;

  /// Execution counters, filled while training runs. These are the
  /// "measured" side of the calibration feedback loop (api::Calibrate): a
  /// synchronous data-parallel step waits for its slowest shard, so the
  /// executed bottleneck work — not the idealized `examples / n` split —
  /// is what a timing model should be fitted to.
  /// Optimizer steps taken (one per mini-batch, all epochs).
  int64_t total_batches = 0;
  /// Sum over batches of the LARGEST shard's example count: the examples a
  /// perfectly synchronous superstep actually waits for. Equals the total
  /// example count when every batch is a single shard.
  int64_t bottleneck_examples = 0;
  /// Sum over batches of the number of gradient shards reduced into the
  /// master (0 for single-shard batches, which update in place).
  int64_t replica_reductions = 0;

  double final_loss() const {
    return epoch_loss.empty() ? 0.0 : epoch_loss.back();
  }
};

/// Trains `network` on `data` with plain SGD. Fails on empty data or
/// invalid options; a short final batch is processed as-is.
Result<TrainingHistory> TrainMiniBatches(Network* network,
                                         const Dataset& data,
                                         const Loss& loss,
                                         SgdOptimizer* optimizer,
                                         const TrainerOptions& options,
                                         Pcg32* rng);

/// Classification accuracy of `network` on `data` (argmax of outputs vs
/// argmax of one-hot targets).
Result<double> EvaluateAccuracy(Network* network, const Dataset& data);

}  // namespace dmlscale::nn

#endif  // DMLSCALE_NN_TRAINER_H_
