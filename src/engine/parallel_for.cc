#include "engine/parallel_for.h"

#include <algorithm>

#include "common/check.h"

namespace dmlscale::engine {

ShardRange ComputeShard(int64_t begin, int64_t end, int num_shards,
                        int shard_index) {
  DMLSCALE_CHECK_GE(end, begin);
  DMLSCALE_CHECK_GE(num_shards, 1);
  DMLSCALE_CHECK(shard_index >= 0 && shard_index < num_shards);
  int64_t total = end - begin;
  int64_t base = total / num_shards;
  int64_t remainder = total % num_shards;
  int64_t offset = begin + shard_index * base +
                   std::min<int64_t>(shard_index, remainder);
  int64_t length = base + (shard_index < remainder ? 1 : 0);
  return ShardRange{offset, offset + length};
}

void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end, int num_shards,
                 const std::function<void(int, int64_t, int64_t)>& body) {
  DMLSCALE_CHECK(pool != nullptr);
  DMLSCALE_CHECK_GE(num_shards, 1);
  for (int s = 0; s < num_shards; ++s) {
    ShardRange range = ComputeShard(begin, end, num_shards, s);
    pool->Submit([&body, s, range] { body(s, range.begin, range.end); });
  }
  pool->WaitIdle();
}

int NumShardsForRange(int64_t begin, int64_t end,
                      const ParallelForOptions& options) {
  DMLSCALE_CHECK_GE(end, begin);
  DMLSCALE_CHECK_GE(options.max_shards, 1);
  DMLSCALE_CHECK_GE(options.min_grain, 1);
  int64_t shards = (end - begin) / options.min_grain;
  shards = std::max<int64_t>(shards, 1);
  shards = std::min<int64_t>(shards, options.max_shards);
  return static_cast<int>(shards);
}

}  // namespace dmlscale::engine
