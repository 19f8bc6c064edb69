// The windowed engine's headline contract, tested as a property: a
// simulation's result is a pure function of its configuration — the shard
// count and thread pool are wall-clock knobs only. Serial (1-shard) runs
// and 2/4/8-shard threaded runs of every shardable scenario must produce
// EXPECT_EQ-identical numbers, bit for bit, not just approximately.

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "sim/scale_scenarios.h"

namespace dmlscale::sim {
namespace {

constexpr int kShardCounts[] = {2, 4, 8};

core::LinkSpec TestLink() {
  return core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-5};
}

RingScaleConfig RingConfig() {
  RingScaleConfig config;
  config.num_nodes = 97;  // prime: uneven shard boundaries
  config.bits = 97 * 8000;
  config.link = TestLink();
  config.compute_seconds = 3e-6;
  config.straggler_sigma = 0.4;
  config.seed = 7;
  return config;
}

TEST(EngineDeterminismTest, RingAllReduceIsShardCountInvariant) {
  Result<ScaleStats> serial = SimulateRingAllReduceAtScale(RingConfig());
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial.value().seconds, 0.0);
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    RingScaleConfig config = RingConfig();
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<ScaleStats> sharded = SimulateRingAllReduceAtScale(config);
    ASSERT_TRUE(sharded.ok());
    // Bit-identical, not approximately equal.
    EXPECT_EQ(sharded.value().seconds, serial.value().seconds)
        << "shards=" << shards;
    EXPECT_EQ(sharded.value().engine.events_executed,
              serial.value().engine.events_executed);
    EXPECT_EQ(sharded.value().engine.windows, serial.value().engine.windows);
    EXPECT_EQ(sharded.value().engine.messages_delivered,
              serial.value().engine.messages_delivered);
  }
}

TEST(EngineDeterminismTest, RingStepCapIsShardCountInvariant) {
  RingScaleConfig base = RingConfig();
  base.max_steps = 17;
  Result<ScaleStats> serial = SimulateRingAllReduceAtScale(base);
  ASSERT_TRUE(serial.ok());
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    RingScaleConfig config = base;
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<ScaleStats> sharded = SimulateRingAllReduceAtScale(config);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded.value().seconds, serial.value().seconds);
    EXPECT_EQ(sharded.value().engine.events_executed,
              serial.value().engine.events_executed);
  }
}

PsScaleConfig PsConfig() {
  PsScaleConfig config;
  config.num_workers = 53;
  config.steps_per_worker = 9;
  config.bits = 64000;
  config.link = TestLink();
  config.compute_seconds = 2e-4;
  config.straggler_sigma = 0.5;
  config.seed = 11;
  return config;
}

TEST(EngineDeterminismTest, ParameterServerIsShardCountInvariant) {
  Result<ScaleStats> serial = SimulateParameterServerAtScale(PsConfig());
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial.value().seconds, 0.0);
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    PsScaleConfig config = PsConfig();
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<ScaleStats> sharded = SimulateParameterServerAtScale(config);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded.value().seconds, serial.value().seconds)
        << "shards=" << shards;
    EXPECT_EQ(sharded.value().engine.events_executed,
              serial.value().engine.events_executed);
    EXPECT_EQ(sharded.value().engine.messages_delivered,
              serial.value().engine.messages_delivered);
  }
}

// The cases above run ~100 events per window, so the engine steps every
// window after the first on the calling thread. These keep the pool path
// under test (and under TSan): 4099 nodes, twice the engine's 2048-event
// inline threshold, with jitter too small to split a ring step or a PS
// phase across windows, so every window holds all 4099 nodes' events. Each
// shard count also runs on every pool size from one thread up: with fewer
// threads than shards, every party steps several shards.
constexpr int kPoolNodes = 4099;

TEST(EngineDeterminismTest, PoolSteppedRingIsShardCountInvariant) {
  RingScaleConfig base = RingConfig();
  base.num_nodes = kPoolNodes;
  base.bits = int64_t{kPoolNodes} * 8000;
  base.straggler_sigma = 0.05;
  base.max_steps = 5;
  Result<ScaleStats> serial = SimulateRingAllReduceAtScale(base);
  ASSERT_TRUE(serial.ok());
  // One window per ring step, each holding every node's event.
  ASSERT_EQ(serial.value().engine.windows, base.max_steps + 1);
  ASSERT_EQ(serial.value().engine.events_executed,
            int64_t{kPoolNodes} * (base.max_steps + 1));
  for (int shards : kShardCounts) {
    for (int threads = 1; threads <= shards; ++threads) {
      ThreadPool pool(static_cast<size_t>(threads));
      RingScaleConfig config = base;
      config.exec.num_shards = shards;
      config.exec.pool = &pool;
      Result<ScaleStats> sharded = SimulateRingAllReduceAtScale(config);
      ASSERT_TRUE(sharded.ok());
      EXPECT_EQ(sharded.value().seconds, serial.value().seconds)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(sharded.value().engine.events_executed,
                serial.value().engine.events_executed);
      EXPECT_EQ(sharded.value().engine.windows,
                serial.value().engine.windows);
      EXPECT_EQ(sharded.value().engine.messages_delivered,
                serial.value().engine.messages_delivered);
      EXPECT_EQ(sharded.value().engine.end_time,
                serial.value().engine.end_time);
    }
  }
}

TEST(EngineDeterminismTest, PoolSteppedParameterServerIsShardCountInvariant) {
  PsScaleConfig base = PsConfig();
  base.num_workers = kPoolNodes;
  base.steps_per_worker = 3;
  base.compute_seconds = 2e-5;
  base.straggler_sigma = 0.05;
  Result<ScaleStats> serial = SimulateParameterServerAtScale(base);
  ASSERT_TRUE(serial.ok());
  // Worker and server phases alternate, one window each, each holding one
  // event per worker: steps + 1 worker phases and steps server phases.
  const int64_t phases = 2 * base.steps_per_worker + 1;
  ASSERT_EQ(serial.value().engine.windows, phases);
  ASSERT_EQ(serial.value().engine.events_executed,
            int64_t{kPoolNodes} * phases);
  for (int shards : kShardCounts) {
    for (int threads = 1; threads <= shards; ++threads) {
      ThreadPool pool(static_cast<size_t>(threads));
      PsScaleConfig config = base;
      config.exec.num_shards = shards;
      config.exec.pool = &pool;
      Result<ScaleStats> sharded = SimulateParameterServerAtScale(config);
      ASSERT_TRUE(sharded.ok());
      EXPECT_EQ(sharded.value().seconds, serial.value().seconds)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(sharded.value().engine.events_executed,
                serial.value().engine.events_executed);
      EXPECT_EQ(sharded.value().engine.windows,
                serial.value().engine.windows);
      EXPECT_EQ(sharded.value().engine.messages_delivered,
                serial.value().engine.messages_delivered);
      EXPECT_EQ(sharded.value().engine.end_time,
                serial.value().engine.end_time);
    }
  }
}

TEST(EngineDeterminismTest, MoreShardsThanNodesStillIdentical) {
  RingScaleConfig config = RingConfig();
  config.num_nodes = 5;
  config.bits = 5 * 8000;
  Result<ScaleStats> serial = SimulateRingAllReduceAtScale(config);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(8);
  config.exec.num_shards = 8;
  config.exec.pool = &pool;
  Result<ScaleStats> sharded = SimulateRingAllReduceAtScale(config);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.value().seconds, serial.value().seconds);
}

TEST(EngineDeterminismTest, RepeatedShardedRunsAreIdentical) {
  ThreadPool pool(4);
  PsScaleConfig config = PsConfig();
  config.exec.num_shards = 4;
  config.exec.pool = &pool;
  Result<ScaleStats> first = SimulateParameterServerAtScale(config);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    Result<ScaleStats> again = SimulateParameterServerAtScale(config);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().seconds, first.value().seconds);
    EXPECT_EQ(again.value().engine.events_executed,
              first.value().engine.events_executed);
  }
}

}  // namespace
}  // namespace dmlscale::sim
