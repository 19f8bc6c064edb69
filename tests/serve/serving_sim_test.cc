// The serving DES: the shard-count-invariance contract (1/2/4/8-shard runs
// EXPECT_EQ bit-identical), bit-pattern goldens that pin every dispatch
// decision, the Erlang-C cross-check (batchless Poisson grids agree with
// AnalyzeMmk within a 15% MAPE budget), the batching and cache mechanics,
// and a DES-backed Q3 answer matching the analytic one.

#include "serve/serving_sim.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/queueing.h"
#include "serve/cluster.h"

namespace dmlscale::serve {
namespace {

constexpr int kShardCounts[] = {2, 4, 8};

// A spec that exercises every moving part: bursty arrivals, a real batcher
// window, a model-sharded replica pool, and a cache tier.
ServingSpec FullSpec() {
  ServingSpec spec;
  spec.arrivals.kind = ArrivalKind::kMmpp;
  spec.arrivals.rate_qps = 2000.0;
  spec.arrivals.burst_rate_multiplier = 4.0;
  spec.arrivals.burst_fraction = 0.1;
  spec.arrivals.burst_mean_duration_s = 0.5;
  spec.batcher.max_batch = 8;
  spec.batcher.max_delay_s = 0.002;
  spec.replica.service.fixed_s = 0.0005;
  spec.replica.service.per_item_s = 0.0008;
  spec.replica.shards = 2;
  spec.replica.rejoin_bits = 1e6;
  spec.replica.link = core::LinkSpec{.bandwidth_bps = 1e10,
                                     .latency_s = 1e-6};
  spec.cache.policy = CachePolicy::kLru;
  spec.cache.hit_rate = 0.3;
  spec.cache.hit_latency_s = 100e-6;
  spec.replicas = 5;
  return spec;
}

ServingSimConfig FullConfig() {
  ServingSimConfig config;
  config.spec = FullSpec();
  config.num_requests = 4000;
  config.warmup_requests = 500;
  config.seed = 21;
  return config;
}

TEST(ServingSimTest, ValidatesItsConfig) {
  ServingSimConfig config = FullConfig();
  config.num_requests = 0;
  EXPECT_EQ(SimulateServing(config).status().code(),
            StatusCode::kInvalidArgument);
  config = FullConfig();
  config.wire_s = 0.0;
  EXPECT_EQ(SimulateServing(config).status().code(),
            StatusCode::kInvalidArgument);
  config = FullConfig();
  config.spec.replicas = 0;
  EXPECT_EQ(SimulateServing(config).status().code(),
            StatusCode::kInvalidArgument);
  // The request total must fit an int64: one past it names both fields.
  config = FullConfig();
  config.num_requests = std::numeric_limits<int64_t>::max();
  config.warmup_requests = 1;
  Result<ServingSimStats> overflow = SimulateServing(config);
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("num_requests"),
            std::string::npos)
      << overflow.status().message();
  EXPECT_NE(overflow.status().message().find("warmup_requests"),
            std::string::npos)
      << overflow.status().message();
}

TEST(ServingSimTest, ResultIsShardCountInvariant) {
  Result<ServingSimStats> serial = SimulateServing(FullConfig());
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->mean_latency_s, 0.0);
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    ServingSimConfig config = FullConfig();
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<ServingSimStats> sharded = SimulateServing(config);
    ASSERT_TRUE(sharded.ok()) << "shards=" << shards;
    // Bit-identical, not approximately equal: every measured number and
    // every histogram bin.
    EXPECT_EQ(sharded->mean_latency_s, serial->mean_latency_s)
        << "shards=" << shards;
    EXPECT_EQ(sharded->p50_s, serial->p50_s);
    EXPECT_EQ(sharded->p95_s, serial->p95_s);
    EXPECT_EQ(sharded->p99_s, serial->p99_s);
    EXPECT_EQ(sharded->duration_s, serial->duration_s);
    EXPECT_EQ(sharded->offered_qps, serial->offered_qps);
    EXPECT_EQ(sharded->completed_qps, serial->completed_qps);
    EXPECT_EQ(sharded->cache_hits, serial->cache_hits);
    EXPECT_EQ(sharded->cache_misses, serial->cache_misses);
    EXPECT_EQ(sharded->batches, serial->batches);
    EXPECT_EQ(sharded->mean_batch, serial->mean_batch);
    EXPECT_EQ(sharded->replica_utilization, serial->replica_utilization);
    EXPECT_EQ(sharded->latency.bins(), serial->latency.bins());
    EXPECT_EQ(sharded->engine.events_executed, serial->engine.events_executed);
  }
}

// The engine steps a window's shards on the pool only when the window
// before it executed at least 2048 events, and on the caller otherwise.
// This fleet's 20 ms windows hold ~800 events while the MMPP process is
// quiet and ~3200 while it bursts, so the run crosses that threshold in
// both directions (four times each way at seed 3) and mixes both paths.
TEST(ServingSimTest, BurstyWindowsCrossingTheInlineRuleAreShardInvariant) {
  ServingSimConfig base;
  base.spec.replicas = 80;
  base.spec.replica.service.per_item_s = 0.001;
  base.spec.arrivals.kind = ArrivalKind::kMmpp;
  base.spec.arrivals.rate_qps = 16000.0;
  base.spec.arrivals.burst_rate_multiplier = 4.0;
  base.spec.arrivals.burst_fraction = 0.2;
  base.spec.arrivals.burst_mean_duration_s = 0.06;
  base.wire_s = 0.02;
  base.num_requests = 24000;
  base.seed = 3;
  Result<ServingSimStats> serial = SimulateServing(base);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    ServingSimConfig config = base;
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<ServingSimStats> sharded = SimulateServing(config);
    ASSERT_TRUE(sharded.ok()) << "shards=" << shards;
    EXPECT_EQ(sharded->mean_latency_s, serial->mean_latency_s)
        << "shards=" << shards;
    EXPECT_EQ(sharded->p50_s, serial->p50_s);
    EXPECT_EQ(sharded->p99_s, serial->p99_s);
    EXPECT_EQ(sharded->duration_s, serial->duration_s);
    EXPECT_EQ(sharded->batches, serial->batches);
    EXPECT_EQ(sharded->replica_utilization, serial->replica_utilization);
    EXPECT_EQ(sharded->latency.bins(), serial->latency.bins());
    EXPECT_EQ(sharded->engine.events_executed, serial->engine.events_executed);
    EXPECT_EQ(sharded->engine.windows, serial->engine.windows);
    EXPECT_EQ(sharded->engine.messages_delivered,
              serial->engine.messages_delivered);
  }
}

// --- Goldens ---------------------------------------------------------------
// Least-outstanding dispatch decides which replica's service stream and
// batch queue each miss lands in, so any change to a dispatch decision
// (including the rotated tie-break among equally loaded replicas) moves
// these numbers. The doubles are pinned as bit patterns (EXPECT_EQ, never
// EXPECT_NEAR); the trailing comments give them in decimal.

struct ServingGolden {
  uint64_t mean_latency_bits;
  uint64_t p99_bits;
  uint64_t duration_bits;
  int64_t batches;
  uint64_t cache_misses;
};

double Pinned(uint64_t bits) { return std::bit_cast<double>(bits); }

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectGolden(const ServingSimConfig& config, const ServingGolden& golden) {
  Result<ServingSimStats> stats = SimulateServing(config);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->mean_latency_s, Pinned(golden.mean_latency_bits))
      << std::hex << "bits 0x" << Bits(stats->mean_latency_s);
  EXPECT_EQ(stats->p99_s, Pinned(golden.p99_bits))
      << std::hex << "bits 0x" << Bits(stats->p99_s);
  EXPECT_EQ(stats->duration_s, Pinned(golden.duration_bits))
      << std::hex << "bits 0x" << Bits(stats->duration_s);
  EXPECT_EQ(stats->batches, golden.batches);
  EXPECT_EQ(stats->cache_misses, golden.cache_misses);
}

// A batchless Poisson fleet of `replicas` exponential servers at
// utilization `rho`, 20k measured requests.
ServingSimConfig BatchlessFleet(int replicas, double rho, uint64_t seed) {
  ServingSimConfig config;
  config.spec.replicas = replicas;
  config.spec.replica.service.per_item_s = 0.001;
  config.spec.arrivals.rate_qps = rho * replicas / 0.001;
  config.num_requests = 20000;
  config.warmup_requests = 2000;
  config.seed = seed;
  return config;
}

TEST(ServingSimGoldenTest, FullSpecMatchesGolden) {
  ServingSimConfig config = FullConfig();
  config.num_requests = 20000;
  config.warmup_requests = 2000;
  ExpectGolden(config, {UINT64_C(0x3f6344b633525de7),  // 0.0023521002390898163
                        UINT64_C(0x3f8240b8c28b8bb4),  // 0.0089125093813374537
                        UINT64_C(0x40260899df5ee5e6),  // 11.01679895432876
                        11690, 15636});
}

TEST(ServingSimGoldenTest, BusyBatchlessFleetMatchesGolden) {
  // rho = 0.9 over 37 replicas: a non-power-of-two fleet under load.
  ExpectGolden(BatchlessFleet(37, 0.9, 41),
               {UINT64_C(0x3f5a4bd5aab8aa2d),  // 0.0016049944487216514
                UINT64_C(0x3f7941779adc0ad4),  // 0.0061659500186148249
                UINT64_C(0x3fe539a1184491f5),  // 0.66328482379736775
                22000, 0});
}

TEST(ServingSimGoldenTest, IdleFleetMatchesGolden) {
  // rho = 0.05 over 37 replicas: nearly every pick is a tie among idle
  // replicas, so the rotated tie-break decides the dispatch order.
  ExpectGolden(BatchlessFleet(37, 0.05, 43),
               {UINT64_C(0x3f51fa0c5376e891),  // 0.0010972137805383179
                UINT64_C(0x3f73288ef59a5b20),  // 0.0046773514128719829
                UINT64_C(0x4027c94a0e2626e8),  // 11.893143121869301
                22000, 0});
}

TEST(ServingSimGoldenTest, BusyBatchedFleetOf256MatchesGolden) {
  // 256 replicas at ~1400 effective qps each behind a 30% cache, with the
  // batcher on: completion acks retire several requests at once.
  ServingSimConfig config;
  config.spec.replicas = 256;
  config.spec.arrivals.rate_qps = 1400.0 * 256;
  config.spec.batcher.max_batch = 8;
  config.spec.batcher.max_delay_s = 0.002;
  config.spec.replica.service.fixed_s = 0.0002;
  config.spec.replica.service.per_item_s = 0.0003;
  config.spec.cache.policy = CachePolicy::kLru;
  config.spec.cache.hit_rate = 0.3;
  config.spec.cache.hit_latency_s = 100e-6;
  config.num_requests = 20000;
  config.warmup_requests = 2000;
  config.seed = 47;
  ExpectGolden(config, {UINT64_C(0x3f61bae418240556),  // 0.0021643118826665626
                        UINT64_C(0x3f7bb13e6afd94a8),  // 0.0067608297539198184
                        UINT64_C(0x3fb147a1dcf7a0cb),  // 0.067499271819204384
                        5176, 15332});
}

TEST(ServingSimGoldenTest, SingleReplicaMatchesGolden) {
  ExpectGolden(BatchlessFleet(1, 0.8, 53),
               {UINT64_C(0x3f7614e9665c1c0b),  // 0.0053910367184988412
                UINT64_C(0x3f98014153d878f5),  // 0.023442288153199226
                UINT64_C(0x403b4806aa2dedc4),  // 27.281351696217612
                22000, 0});
}

TEST(ServingSimGoldenTest, OverloadedBatchedReplicaMatchesGolden) {
  // One batched replica offered about twice its capacity (a full batch of 8
  // takes 2.6 ms, so it serves ~3100 qps against 6000 offered): its queue
  // grows into the thousands, and every batch start takes 8 from its head.
  ServingSimConfig config;
  config.spec.replicas = 1;
  config.spec.arrivals.rate_qps = 6000.0;
  config.spec.batcher.max_batch = 8;
  config.spec.batcher.max_delay_s = 0.002;
  config.spec.replica.service.fixed_s = 0.0002;
  config.spec.replica.service.per_item_s = 0.0003;
  config.num_requests = 20000;
  config.warmup_requests = 2000;
  config.seed = 59;
  ExpectGolden(config, {UINT64_C(0x400025c4b8dc42c3),  // 2.0184416238992937
                        UINT64_C(0x400db90a9f36bceb),  // 3.7153522909717274
                        UINT64_C(0x401d7daad359b347),  // 7.3727219604014129
                        2750, 0});
}

TEST(ServingSimTest, BatchlessPoissonGridMatchesErlangCWithin15Percent) {
  // The cross-check the whole subsystem hangs on: with no batching and no
  // cache, exponential service draws make the sim an M/M/k realization,
  // and its mean latency must track AnalyzeMmk's sojourn time (plus the
  // round-trip wire the analytic form does not price). The per-point
  // budget is wider than the 15% MAPE bar because least-outstanding
  // dispatch commits each request at arrival: unlike the M/M/k shared
  // queue, a committed request cannot jockey to whichever server frees
  // first, which inflates the wait by ~10-15% at rho = 0.8 (measured to
  // persist at 400k requests — physics, not noise).
  const double service_s = 0.001;
  double ape_sum = 0.0;
  int points = 0;
  for (int k : {1, 2, 4}) {
    for (double utilization : {0.3, 0.6, 0.8}) {
      ServingSpec spec;
      spec.arrivals.rate_qps = utilization * k / service_s;
      spec.replica.service.per_item_s = service_s;
      spec.replicas = k;

      ServingSimConfig config;
      config.spec = spec;
      config.num_requests = 60000;
      config.warmup_requests = 6000;
      config.seed = 97;
      Result<ServingSimStats> stats = SimulateServing(config);
      ASSERT_TRUE(stats.ok()) << "k=" << k << " rho=" << utilization;

      Result<core::MmkMetrics> mmk =
          core::AnalyzeMmk(k, spec.arrivals.rate_qps, 1.0 / service_s);
      ASSERT_TRUE(mmk.ok());
      double analytic = mmk->mean_sojourn_s + 2.0 * config.wire_s;
      double ape =
          std::abs(analytic - stats->mean_latency_s) / stats->mean_latency_s;
      EXPECT_LT(ape, 0.20) << "k=" << k << " rho=" << utilization
                           << " analytic=" << analytic
                           << " sim=" << stats->mean_latency_s;
      ape_sum += ape;
      ++points;
    }
  }
  EXPECT_LT(ape_sum / points, 0.15);  // the MAPE budget from the roadmap
}

TEST(ServingSimTest, RoundRobinPaysTheNoPoolingPenalty) {
  // Blind rotation splits the Poisson stream into k independent E_k/M/1
  // queues: a request can wait at one replica while another idles, so its
  // latency strictly dominates least-outstanding dispatch under load.
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 3200.0;  // rho = 0.8 over 4 replicas
  config.spec.replica.service.per_item_s = 0.001;
  config.spec.replicas = 4;
  config.num_requests = 20000;
  config.warmup_requests = 2000;
  config.seed = 11;
  Result<ServingSimStats> pooled = SimulateServing(config);
  ASSERT_TRUE(pooled.ok());
  config.spec.dispatch = DispatchPolicy::kRoundRobin;
  Result<ServingSimStats> split = SimulateServing(config);
  ASSERT_TRUE(split.ok());
  EXPECT_GT(split->mean_latency_s, 1.2 * pooled->mean_latency_s);
  EXPECT_GT(split->p99_s, pooled->p99_s);
}

TEST(ServingSimTest, BatcherFormsBatchesUnderLoad) {
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 3000.0;
  config.spec.batcher.max_batch = 16;
  config.spec.batcher.max_delay_s = 0.004;
  config.spec.replica.service.fixed_s = 0.002;
  config.spec.replica.service.per_item_s = 0.0002;
  config.num_requests = 5000;
  config.seed = 5;
  Result<ServingSimStats> stats = SimulateServing(config);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->mean_batch, 1.5);
  EXPECT_LT(stats->batches, config.num_requests);
  EXPECT_GT(stats->mean_replica_utilization, 0.0);
}

TEST(ServingSimTest, CacheHitsShortCircuitAtTheHitLatency) {
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 500.0;
  config.spec.replica.service.per_item_s = 0.001;
  config.spec.cache.policy = CachePolicy::kLru;
  config.spec.cache.hit_rate = 0.6;
  config.spec.cache.hit_latency_s = 50e-6;
  config.num_requests = 10000;
  config.seed = 8;
  Result<ServingSimStats> cached = SimulateServing(config);
  ASSERT_TRUE(cached.ok());
  // Every request flips the coin; the achieved rate tracks the declared one.
  EXPECT_EQ(cached->cache_hits + cached->cache_misses,
            static_cast<uint64_t>(config.num_requests));
  double achieved = static_cast<double>(cached->cache_hits) /
                    static_cast<double>(config.num_requests);
  EXPECT_NEAR(achieved, 0.6, 0.03);
  // With 60% of requests answered in 50us, the median IS the hit path.
  EXPECT_LT(cached->p50_s, 0.0002);

  config.spec.cache = CacheSpec{};
  Result<ServingSimStats> uncached = SimulateServing(config);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached->cache_hits, 0u);
  EXPECT_GT(uncached->mean_latency_s, cached->mean_latency_s);
}

TEST(ServingSimTest, DesBackedQ3AgreesWithTheAnalyticAnswer) {
  // Q3 both ways: plan replicas for 3000 qps under a p50 SLO analytically,
  // then hand the planner the DES as its latency oracle and require the
  // same answer — the "planner does not care which backend" contract.
  ServingSpec spec;
  spec.arrivals.rate_qps = 3000.0;
  spec.replica.service.per_item_s = 0.001;
  const double target_qps = 3000.0;
  const double slo_s = 0.0025;

  core::ServingLatencyFn analytic_fn = [&spec](int replicas, double qps) {
    ServingSpec point = spec;
    point.quantile = 0.5;
    return AnalyticQuantileLatency(point, replicas, qps);
  };
  Result<int> analytic = core::CapacityPlanner::ReplicasForQps(
      analytic_fn, target_qps, slo_s, 64);
  ASSERT_TRUE(analytic.ok());
  EXPECT_GT(analytic.value(), 3);  // 3 replicas saturate at 3000 qps

  core::ServingLatencyFn des_fn =
      [&spec](int replicas, double qps) -> Result<double> {
    ServingSimConfig config;
    config.spec = spec;
    config.spec.replicas = replicas;
    config.spec.arrivals.rate_qps = qps;
    config.num_requests = 20000;
    config.warmup_requests = 2000;
    config.seed = 31;
    DMLSCALE_ASSIGN_OR_RETURN(ServingSimStats stats, SimulateServing(config));
    return stats.p50_s;
  };
  Result<int> des = core::CapacityPlanner::ReplicasForQps(
      des_fn, target_qps, slo_s, 64);
  ASSERT_TRUE(des.ok());
  EXPECT_EQ(des.value(), analytic.value());
}

}  // namespace
}  // namespace dmlscale::serve
