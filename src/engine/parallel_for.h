#ifndef DMLSCALE_ENGINE_PARALLEL_FOR_H_
#define DMLSCALE_ENGINE_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

#include "common/thread_pool.h"

namespace dmlscale::engine {

/// Splits [begin, end) into `num_shards` contiguous ranges and runs
/// `body(shard_index, shard_begin, shard_end)` on the pool, blocking until
/// all shards finish. Shards are as equal as possible (first `remainder`
/// shards get one extra element). Empty ranges still invoke the body with
/// shard_begin == shard_end so per-shard accumulators stay aligned.
void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end, int num_shards,
                 const std::function<void(int, int64_t, int64_t)>& body);

/// Grain-size control for ParallelFor: cap the shard count so each shard
/// processes at least `min_grain` elements — tiny shards cost more in
/// queueing than they save in parallelism.
struct ParallelForOptions {
  /// Upper bound on shards (typically the pool's thread count).
  int max_shards = 1;
  /// Minimum elements per shard (>= 1).
  int64_t min_grain = 1;
};

/// The shard count to pass to ParallelFor for [begin, end):
/// clamp((end - begin) / min_grain, 1, max_shards). Callers with
/// determinism contracts tied to shard boundaries compute it once up front.
int NumShardsForRange(int64_t begin, int64_t end,
                      const ParallelForOptions& options);

/// Shard boundaries used by ParallelFor; exposed for tests and for
/// workload accounting.
struct ShardRange {
  int64_t begin = 0;
  int64_t end = 0;
};
ShardRange ComputeShard(int64_t begin, int64_t end, int num_shards,
                        int shard_index);

}  // namespace dmlscale::engine

#endif  // DMLSCALE_ENGINE_PARALLEL_FOR_H_
