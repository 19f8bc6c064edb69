#include "engine/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace dmlscale::engine {
namespace {

TEST(ComputeShardTest, EvenSplit) {
  for (int s = 0; s < 4; ++s) {
    ShardRange r = ComputeShard(0, 8, 4, s);
    EXPECT_EQ(r.begin, 2 * s);
    EXPECT_EQ(r.end, 2 * s + 2);
  }
}

TEST(ComputeShardTest, RemainderGoesToFirstShards) {
  // 10 items over 4 shards: 3, 3, 2, 2.
  EXPECT_EQ(ComputeShard(0, 10, 4, 0).end, 3);
  EXPECT_EQ(ComputeShard(0, 10, 4, 1).begin, 3);
  EXPECT_EQ(ComputeShard(0, 10, 4, 1).end, 6);
  EXPECT_EQ(ComputeShard(0, 10, 4, 2).end, 8);
  EXPECT_EQ(ComputeShard(0, 10, 4, 3).end, 10);
}

TEST(ComputeShardTest, MoreShardsThanItems) {
  // 2 items over 5 shards: shards 2..4 are empty.
  EXPECT_EQ(ComputeShard(0, 2, 5, 0).end - ComputeShard(0, 2, 5, 0).begin, 1);
  EXPECT_EQ(ComputeShard(0, 2, 5, 4).begin, ComputeShard(0, 2, 5, 4).end);
}

TEST(ComputeShardTest, NonZeroBegin) {
  ShardRange r = ComputeShard(100, 110, 2, 1);
  EXPECT_EQ(r.begin, 105);
  EXPECT_EQ(r.end, 110);
}

TEST(ComputeShardTest, ShardsArePartition) {
  for (int64_t total : {0, 1, 7, 100, 101}) {
    for (int shards : {1, 2, 3, 8}) {
      int64_t covered = 0;
      int64_t expected_next = 0;
      for (int s = 0; s < shards; ++s) {
        ShardRange r = ComputeShard(0, total, shards, s);
        EXPECT_EQ(r.begin, expected_next);
        EXPECT_LE(r.begin, r.end);
        covered += r.end - r.begin;
        expected_next = r.end;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(100);
  ParallelFor(&pool, 0, 100, 7, [&](int, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      visits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, EmptyRangeInvokesAllShards) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 5, 5, 3, [&](int, int64_t begin, int64_t end) {
    EXPECT_EQ(begin, end);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelForTest, ShardIndexPassedThrough) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> seen(4);
  ParallelFor(&pool, 0, 8, 4, [&](int shard, int64_t, int64_t) {
    seen[static_cast<size_t>(shard)].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ParallelForTest, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  std::vector<int64_t> values(1000);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int64_t> partial(8, 0);
  ParallelFor(&pool, 0, 1000, 8, [&](int shard, int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      partial[static_cast<size_t>(shard)] += values[static_cast<size_t>(i)];
    }
  });
  int64_t total = std::accumulate(partial.begin(), partial.end(), int64_t{0});
  EXPECT_EQ(total, 999 * 1000 / 2);
}

TEST(ParallelForTest, NumShardsForRangeHonorsGrainAndCap) {
  // Plenty of elements: the cap wins.
  EXPECT_EQ(NumShardsForRange(0, 1000, {.max_shards = 4, .min_grain = 10}),
            4);
  // The grain wins: 25 elements at grain 10 -> 2 shards.
  EXPECT_EQ(NumShardsForRange(0, 25, {.max_shards = 8, .min_grain = 10}), 2);
  // Below one grain (and the empty range) collapse to a single shard.
  EXPECT_EQ(NumShardsForRange(0, 9, {.max_shards = 8, .min_grain = 10}), 1);
  EXPECT_EQ(NumShardsForRange(5, 5, {.max_shards = 8, .min_grain = 10}), 1);
}

}  // namespace
}  // namespace dmlscale::engine
