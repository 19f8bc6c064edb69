#include "sim/workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "api/scenario.h"

namespace dmlscale::sim {
namespace {

core::NodeSpec UnitNode() {
  return core::NodeSpec{.name = "u", .peak_flops = 1e9, .efficiency = 1.0};
}
core::LinkSpec Gigabit() { return core::LinkSpec{.bandwidth_bps = 1e9}; }

GdSimConfig BasicConfig() {
  return GdSimConfig{.total_ops = 10e9,
                     .message_bits = 1e8,
                     .node = UnitNode(),
                     .link = Gigabit(),
                     .overhead = OverheadModel::None(),
                     .iterations = 1};
}

TEST(GdSimConfigTest, Validation) {
  GdSimConfig config = BasicConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.total_ops = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = BasicConfig();
  config.iterations = 0;
  EXPECT_FALSE(config.Validate().ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double value : {nan, inf}) {
    config = BasicConfig();
    config.total_ops = value;
    EXPECT_FALSE(config.Validate().ok()) << value;
    config = BasicConfig();
    config.message_bits = value;
    EXPECT_FALSE(config.Validate().ok()) << value;
  }
  config = BasicConfig();
  config.overhead.straggler_sigma = -0.1;
  EXPECT_FALSE(config.Validate().ok());

  // The tree sims run on the engine: a NaN workload must come back as a
  // Status before any event is scheduled.
  config = BasicConfig();
  config.total_ops = nan;
  Pcg32 rng(1);
  EXPECT_EQ(SimulateAllReduceSgdIteration(config, 4, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SparkGdSimTest, SingleNodeIsPureCompute) {
  Pcg32 rng(1);
  auto t = SimulateSparkGdIteration(BasicConfig(), 1, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 10.0);
}

TEST(SparkGdSimTest, WithoutOverheadTracksClosedFormModel) {
  // With zero overhead/jitter, the simulated iteration should stay within
  // ~25% of the paper's closed-form Spark model across n (the simulator's
  // two-wave is cheaper because uneven groups pipeline).
  GdSimConfig config = BasicConfig();
  api::Scenario model =
      api::Scenario::Builder()
          .Hardware(config.node)
          .Link(config.link)
          .Compute("perfectly-parallel", {{"total_flops", config.total_ops}})
          .Comm("spark-gd", {{"bits", config.message_bits}})
          .Build()
          .value();
  Pcg32 rng(2);
  for (int n : {2, 4, 8, 12, 16}) {
    auto sim_t = SimulateSparkGdIteration(config, n, &rng);
    ASSERT_TRUE(sim_t.ok());
    double model_t = model.Seconds(n);
    EXPECT_NEAR(sim_t.value(), model_t, 0.25 * model_t) << "n=" << n;
  }
}

TEST(SparkGdSimTest, SchedulingOverheadAddsUp) {
  GdSimConfig config = BasicConfig();
  config.overhead.sched_fixed_s = 1.0;
  config.overhead.sched_per_worker_s = 0.5;
  Pcg32 rng(3);
  auto with = SimulateSparkGdIteration(config, 4, &rng);
  config.overhead = OverheadModel::None();
  auto without = SimulateSparkGdIteration(config, 4, &rng);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_NEAR(with.value() - without.value(), 1.0 + 0.5 * 4, 1e-9);
}

TEST(SparkGdSimTest, StragglersOnlySlowThingsDown) {
  GdSimConfig config = BasicConfig();
  Pcg32 rng(4);
  auto base = SimulateSparkGdIteration(config, 8, &rng);
  config.overhead.straggler_sigma = 0.2;
  config.iterations = 20;
  Pcg32 rng2(5);
  auto jittered = SimulateSparkGdIteration(config, 8, &rng2);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(jittered.ok());
  // max over log-normal samples has mean > median: expect slower.
  EXPECT_GT(jittered.value(), base.value());
}

TEST(AllReduceSgdSimTest, WeakScalingComputeConstant) {
  // total_ops is per worker: with free comm, time is independent of n.
  GdSimConfig config = BasicConfig();
  config.message_bits = 0.0;
  Pcg32 rng(6);
  auto t1 = SimulateAllReduceSgdIteration(config, 1, &rng);
  auto t8 = SimulateAllReduceSgdIteration(config, 8, &rng);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t8.ok());
  EXPECT_NEAR(t1.value(), t8.value(), 1e-9);
}

TEST(AllReduceSgdSimTest, CommGrowsLogarithmically) {
  GdSimConfig config = BasicConfig();
  Pcg32 rng(7);
  auto t2 = SimulateAllReduceSgdIteration(config, 2, &rng);
  auto t16 = SimulateAllReduceSgdIteration(config, 16, &rng);
  auto t64 = SimulateAllReduceSgdIteration(config, 64, &rng);
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(t16.ok());
  ASSERT_TRUE(t64.ok());
  // Roughly log-shaped growth: the 16 -> 64 increment is comparable to
  // (not many times larger than) the 2 -> 16 increment.
  double d1 = t16.value() - t2.value();
  double d2 = t64.value() - t16.value();
  EXPECT_LT(d2, 2.0 * d1);
  EXPECT_GT(t64.value(), t16.value());
}

TEST(BpSimTest, Validation) {
  BpSimConfig config{.edges_per_worker = {100.0, 200.0},
                     .ops_per_edge = 14.0,
                     .node = UnitNode(),
                     .overhead = OverheadModel::None(),
                     .supersteps = 1};
  EXPECT_TRUE(config.Validate().ok());
  config.edges_per_worker.clear();
  EXPECT_FALSE(config.Validate().ok());
  config = BpSimConfig{.edges_per_worker = {100.0},
                       .ops_per_edge = 0.0,
                       .node = UnitNode(),
                       .overhead = OverheadModel::None(),
                       .supersteps = 1};
  EXPECT_FALSE(config.Validate().ok());
}

TEST(BpSimTest, SlowestWorkerDominates) {
  BpSimConfig config{.edges_per_worker = {1e6, 2e6, 5e6},
                     .ops_per_edge = 14.0,
                     .node = UnitNode(),
                     .overhead = OverheadModel::None(),
                     .supersteps = 1};
  Pcg32 rng(8);
  auto t = SimulateBpSuperstep(config, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 5e6 * 14.0 / 1e9);
}

TEST(BpSimTest, PerWorkerOverheadGrowsWithN) {
  // The Fig. 4 effect: engine overhead grows with worker count, so the
  // superstep time stops improving even with balanced shares.
  Pcg32 rng(9);
  double small_n, large_n;
  {
    BpSimConfig config{.edges_per_worker = std::vector<double>(4, 1e6),
                       .ops_per_edge = 14.0,
                       .node = UnitNode(),
                       .overhead = OverheadModel::GraphLabLike(),
                       .supersteps = 10};
    small_n = SimulateBpSuperstep(config, &rng).value();
  }
  {
    BpSimConfig config{.edges_per_worker = std::vector<double>(64, 1e6 / 16),
                       .ops_per_edge = 14.0,
                       .node = UnitNode(),
                       .overhead = OverheadModel::GraphLabLike(),
                       .supersteps = 10};
    large_n = SimulateBpSuperstep(config, &rng).value();
  }
  // 16x more workers with 16x less work each — but the overhead term
  // (per-worker) makes the ideal-16x speedup unattainable.
  EXPECT_GT(large_n, small_n / 16.0);
}

TEST(GenericSuperstepSimTest, NoOverheadReproducesClosedForm) {
  SuperstepSimConfig config{.overhead = OverheadModel::None(),
                            .supersteps = 2};
  Pcg32 rng(1);
  for (int n : {1, 4, 14, 30}) {
    auto t = SimulateGenericSuperstep(config, n, 196.0 / n,
                                      n == 1 ? 0.0 : 1.0 * n, &rng);
    ASSERT_TRUE(t.ok());
    EXPECT_DOUBLE_EQ(t.value(), 196.0 / n + (n == 1 ? 0.0 : 1.0 * n))
        << "n=" << n;
  }
}

TEST(GenericSuperstepSimTest, OverheadsAddUp) {
  SuperstepSimConfig config{
      .message_bits = 1e9,
      .overhead = OverheadModel{.sched_fixed_s = 0.5,
                                .sched_per_worker_s = 0.25,
                                .serialize_s_per_bit = 1e-9},
      .supersteps = 3};
  Pcg32 rng(2);
  auto t = SimulateGenericSuperstep(config, 4, 2.0, 1.0, &rng);
  ASSERT_TRUE(t.ok());
  // scheduling (0.5 + 4*0.25) + compute 2 + comm 1 + serialization 1.
  EXPECT_DOUBLE_EQ(t.value(), 1.5 + 2.0 + 1.0 + 1.0);
}

TEST(GenericSuperstepSimTest, StragglersStretchTheBarrier) {
  SuperstepSimConfig no_jitter{.overhead = OverheadModel::None(),
                               .supersteps = 20};
  SuperstepSimConfig jitter = no_jitter;
  jitter.overhead.straggler_sigma = 0.3;
  Pcg32 rng(3);
  double base =
      SimulateGenericSuperstep(no_jitter, 16, 10.0, 0.5, &rng).value();
  // The barrier waits for the slowest of 16 log-normal draws, whose
  // expected max exceeds the median-1 deterministic time.
  double stretched =
      SimulateGenericSuperstep(jitter, 16, 10.0, 0.5, &rng).value();
  EXPECT_GT(stretched, base);
}

// The barrier as one jitter draw per worker folded with std::max: what
// SimulateGenericSuperstep computed before it drew the maximum directly.
double PerWorkerLoopMean(const SuperstepSimConfig& config, int n,
                         double compute, double comm, Pcg32* rng) {
  const double serialize =
      config.overhead.serialize_s_per_bit * config.message_bits;
  double total = 0.0;
  for (int step = 0; step < config.supersteps; ++step) {
    const double start = config.overhead.SchedulingSeconds(n);
    double barrier = 0.0;
    for (int worker = 0; worker < n; ++worker) {
      barrier = std::max(barrier,
                         start + compute * config.overhead.SampleJitter(rng));
    }
    total += barrier + comm + serialize;
  }
  return total / static_cast<double>(config.supersteps);
}

TEST(GenericSuperstepSimTest, BarrierMatchesPerWorkerLoop) {
  SuperstepSimConfig config{
      .message_bits = 1e6,
      .overhead = OverheadModel::SparkLike(),
      .supersteps = 3};
  for (double sigma : {0.0, 0.01, 0.08, 0.25, 1.0, 3.0, 50.0}) {
    config.overhead.straggler_sigma = sigma;
    for (uint64_t seed : {1, 2, 3}) {
      Pcg32 fast(seed, 5);
      Pcg32 slow = fast;
      // One generator runs through every n, so the cached half at entry
      // varies from call to call.
      for (int n = 1; n <= 300; ++n) {
        const double compute = 196.0 / n;
        const double comm = 0.01 * n;
        Result<double> got =
            SimulateGenericSuperstep(config, n, compute, comm, &fast);
        ASSERT_TRUE(got.ok()) << got.status();
        const double want = PerWorkerLoopMean(config, n, compute, comm, &slow);
        ASSERT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(want))
            << "sigma=" << sigma << " seed=" << seed << " n=" << n;
      }
      EXPECT_EQ(fast.NextGaussian(), slow.NextGaussian()) << sigma;
      EXPECT_EQ(fast.NextUint32(), slow.NextUint32()) << sigma;
    }
  }

  // compute = 0 with exp(sigma * z) overflowing: the loop's 0 * inf = NaN
  // was dropped by std::max, so every superstep waits for start alone.
  config.overhead.straggler_sigma = 200.0;
  config.supersteps = 40;
  const int n = 300;
  const double comm = 0.01 * n;
  Pcg32 fast(7, 5);
  Pcg32 slow = fast;
  Pcg32 probe = fast;
  int overflowed = 0;
  for (int i = 0; i < n * config.supersteps; ++i) {
    overflowed += std::isinf(std::exp(200.0 * probe.NextGaussian()));
  }
  ASSERT_GT(overflowed, 0);
  Result<double> got = SimulateGenericSuperstep(config, n, 0.0, comm, &fast);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(std::bit_cast<uint64_t>(*got),
            std::bit_cast<uint64_t>(
                PerWorkerLoopMean(config, n, 0.0, comm, &slow)));
  EXPECT_DOUBLE_EQ(*got, config.overhead.SchedulingSeconds(n) + comm +
                             config.overhead.serialize_s_per_bit *
                                 config.message_bits);
  EXPECT_EQ(fast.NextUint32(), slow.NextUint32());
}

TEST(GenericSuperstepSimTest, RejectsInvalidConfig) {
  Pcg32 rng(4);
  SuperstepSimConfig config{.overhead = OverheadModel::None(),
                            .supersteps = 1};
  EXPECT_FALSE(SimulateGenericSuperstep(config, 0, 1.0, 1.0, &rng).ok());
  EXPECT_FALSE(SimulateGenericSuperstep(config, 2, 1.0, 1.0, nullptr).ok());
  config.supersteps = 0;
  EXPECT_FALSE(SimulateGenericSuperstep(config, 2, 1.0, 1.0, &rng).ok());
  config.supersteps = 1;
  ASSERT_TRUE(SimulateGenericSuperstep(config, 2, 1.0, 1.0, &rng).ok());

  // Every overhead field and the payload must be finite and >= 0; the
  // error names the offending field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct BadField {
    const char* name;
    double OverheadModel::* field;
  };
  for (BadField bad : {BadField{"sched_fixed_s", &OverheadModel::sched_fixed_s},
                       BadField{"sched_per_worker_s",
                                &OverheadModel::sched_per_worker_s},
                       BadField{"serialize_s_per_bit",
                                &OverheadModel::serialize_s_per_bit},
                       BadField{"straggler_sigma",
                                &OverheadModel::straggler_sigma}}) {
    for (double value : {-1e6, nan, inf}) {
      SuperstepSimConfig broken = config;
      broken.overhead.*bad.field = value;
      auto result = SimulateGenericSuperstep(broken, 2, 1.0, 1.0, &rng);
      ASSERT_FALSE(result.ok()) << bad.name << "=" << value;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find(bad.name), std::string::npos)
          << result.status().message();
    }
  }
  SuperstepSimConfig broken = config;
  broken.message_bits = nan;
  auto t = SimulateGenericSuperstep(broken, 2, 1.0, 1.0, &rng);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("message_bits"), std::string::npos);

  // Model times are checked at the evaluated node count.
  for (double value : {-1.0, nan, inf}) {
    t = SimulateGenericSuperstep(config, 3, value, 1.0, &rng);
    ASSERT_FALSE(t.ok()) << value;
    EXPECT_NE(t.status().message().find("compute_seconds"), std::string::npos);
    EXPECT_NE(t.status().message().find("n=3"), std::string::npos);
    t = SimulateGenericSuperstep(config, 3, 1.0, value, &rng);
    ASSERT_FALSE(t.ok()) << value;
    EXPECT_NE(t.status().message().find("comm_seconds"), std::string::npos);
  }
}

}  // namespace
}  // namespace dmlscale::sim
