#include "sim/fault_scenarios.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/thread_pool.h"
#include "core/faults.h"
#include "sim/scale_scenarios.h"

namespace dmlscale::sim {
namespace {

constexpr int kShardCounts[] = {2, 4, 8};

FaultJobConfig JobConfig() {
  FaultJobConfig config;
  config.num_workers = 10;
  config.work_seconds = 400.0;
  config.faults.mtbf_seconds = 600.0;
  config.faults.mttr_seconds = 5.0;
  config.faults.checkpoint_cost_s = 2.0;
  config.faults.straggler_sigma = 0.3;
  config.link = core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-3};
  config.seed = 3;
  return config;
}

TEST(FaultScenariosTest, FaultAwareJobIsShardCountInvariant) {
  Result<FaultJobStats> serial = SimulateFaultAwareJob(JobConfig());
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial.value().completion_seconds, 400.0);
  EXPECT_GT(serial.value().faults.crashes, 0);
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    FaultJobConfig config = JobConfig();
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<FaultJobStats> sharded = SimulateFaultAwareJob(config);
    ASSERT_TRUE(sharded.ok());
    // Bit-identical, fault events included — the tentpole's determinism
    // claim for the injector itself.
    EXPECT_EQ(sharded.value().completion_seconds,
              serial.value().completion_seconds)
        << "shards=" << shards;
    EXPECT_EQ(sharded.value().segments_completed,
              serial.value().segments_completed);
    EXPECT_EQ(sharded.value().disruptions, serial.value().disruptions);
    EXPECT_EQ(sharded.value().faults.crashes, serial.value().faults.crashes);
    EXPECT_EQ(sharded.value().faults.recoveries,
              serial.value().faults.recoveries);
    EXPECT_EQ(sharded.value().engine.events_executed,
              serial.value().engine.events_executed);
    EXPECT_EQ(sharded.value().engine.messages_delivered,
              serial.value().engine.messages_delivered);
  }
}

TEST(FaultScenariosTest, ReplicaTakeoverJobIsShardCountInvariant) {
  FaultJobConfig base = JobConfig();
  base.faults.recovery = core::RecoveryStrategy::kReplicaTakeover;
  base.faults.takeover_seconds = 3.0;
  base.faults.checkpoint_cost_s = 0.0;
  Result<FaultJobStats> serial = SimulateFaultAwareJob(base);
  ASSERT_TRUE(serial.ok());
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    FaultJobConfig config = base;
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<FaultJobStats> sharded = SimulateFaultAwareJob(config);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded.value().completion_seconds,
              serial.value().completion_seconds);
    EXPECT_EQ(sharded.value().disruptions, serial.value().disruptions);
    EXPECT_EQ(sharded.value().faults.crashes, serial.value().faults.crashes);
  }
}

// Bit-pattern goldens for the fault DES: one run and a 20-trial mean for
// each recovery strategy, serial and on 4 shards. The shard tests above
// only compare runs with each other, and the analytic cross-check below
// allows 15%, so these are what pin the simulated numbers themselves.
struct FaultJobGolden {
  const char* name;
  FaultJobConfig config;
  uint64_t completion_bits;
  uint64_t mean_bits;  // SimulateExpectedCompletionSeconds, 20 trials
  int64_t segments;
  int64_t disruptions;
  int64_t crashes;
  int64_t recoveries;
  int64_t events;
  int64_t messages;
};

TEST(FaultScenariosTest, FaultAwareJobMatchesGolden) {
  FaultJobConfig replica = JobConfig();
  replica.faults.recovery = core::RecoveryStrategy::kReplicaTakeover;
  replica.faults.takeover_seconds = 3.0;
  replica.faults.checkpoint_cost_s = 0.0;
  FaultJobConfig speculative = JobConfig();
  speculative.faults.recovery = core::RecoveryStrategy::kSpeculativeReexec;
  speculative.faults.speculation_threshold = 1.5;
  const FaultJobGolden goldens[] = {
      // 961.37140063521224 s; mean 962.44507450361584 s.
      {"checkpoint-restart", JobConfig(), UINT64_C(0x408e0af8a0e56f9a),
       UINT64_C(0x408e138f8338aa82), 26, 16, 16, 16, 126, 26},
      // 561.65227629241099 s; mean 702.90392168773349 s.
      {"replica", replica, UINT64_C(0x40818d37dca1fee4),
       UINT64_C(0x4085f73b3b4b37af), 1, 9, 9, 9, 57, 19},
      // 1012.143275816309 s; mean 981.39354099106151 s.
      {"speculative", speculative, UINT64_C(0x408fa1256dca8ad7),
       UINT64_C(0x408eab25f8d1b1f5), 26, 16, 16, 16, 126, 26},
  };
  ThreadPool pool(4);
  for (const FaultJobGolden& golden : goldens) {
    for (int shards : {1, 4}) {
      SCOPED_TRACE(std::string(golden.name) +
                   " shards=" + std::to_string(shards));
      FaultJobConfig config = golden.config;
      config.exec.num_shards = shards;
      config.exec.pool = &pool;
      Result<FaultJobStats> stats = SimulateFaultAwareJob(config);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(std::bit_cast<uint64_t>(stats.value().completion_seconds),
                golden.completion_bits);
      EXPECT_EQ(stats.value().segments_completed, golden.segments);
      EXPECT_EQ(stats.value().disruptions, golden.disruptions);
      EXPECT_EQ(stats.value().faults.crashes, golden.crashes);
      EXPECT_EQ(stats.value().faults.recoveries, golden.recoveries);
      EXPECT_EQ(stats.value().engine.events_executed, golden.events);
      EXPECT_EQ(stats.value().engine.messages_delivered, golden.messages);

      config.trials = 20;
      Result<double> mean = SimulateExpectedCompletionSeconds(config);
      ASSERT_TRUE(mean.ok()) << mean.status().ToString();
      EXPECT_EQ(std::bit_cast<uint64_t>(mean.value()), golden.mean_bits);
    }
  }
}

TEST(FaultScenariosTest, RejectsDegenerateConfigs) {
  FaultJobConfig config = JobConfig();
  config.num_workers = 0;
  EXPECT_EQ(SimulateFaultAwareJob(config).status().code(),
            StatusCode::kInvalidArgument);

  config = JobConfig();
  config.link.latency_s = 0.0;  // control_bits = 0 -> zero wire time
  Status status = SimulateFaultAwareJob(config).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("wire"), std::string::npos);

  config = JobConfig();
  config.trials = 0;
  EXPECT_EQ(SimulateExpectedCompletionSeconds(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultScenariosTest, RunGuardTurnsRunawayJobIntoResourceExhausted) {
  FaultJobConfig config = JobConfig();
  config.max_events = 20;  // far too few to finish 400 s of segments
  Result<FaultJobStats> stats = SimulateFaultAwareJob(config);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  // The satellite counters: the guard message reports how far the run got.
  EXPECT_NE(stats.status().message().find("events executed"),
            std::string::npos);
}

// The analytic-vs-DES cross-check (PR 6 pattern): the Monte Carlo mean of
// the event-driven job must track core::ExpectedCompletionSeconds across the
// crash x straggler x recovery grid within 15% MAPE. Measured headroom is
// large (the grid sits around 0.3% MAPE), so a failure here means a real
// divergence between the closed forms and the simulated processes, not
// noise.
TEST(FaultScenariosTest, AnalyticCompletionMatchesDesWithinTolerance) {
  const core::RecoveryStrategy recoveries[] = {
      core::RecoveryStrategy::kCheckpointRestart,
      core::RecoveryStrategy::kReplicaTakeover,
      core::RecoveryStrategy::kSpeculativeReexec,
  };
  const double sigmas[] = {0.0, 0.3};
  const double mtbfs[] = {600.0, 1500.0};
  const int n = 12;
  const double work = 400.0;

  double ape_sum = 0.0;
  int cells = 0;
  for (core::RecoveryStrategy recovery : recoveries) {
    for (double sigma : sigmas) {
      for (double mtbf : mtbfs) {
        core::FaultSpec spec;
        spec.mtbf_seconds = mtbf;
        spec.mttr_seconds = 5.0;
        spec.straggler_sigma = sigma;
        spec.recovery = recovery;
        if (recovery == core::RecoveryStrategy::kReplicaTakeover) {
          spec.takeover_seconds = 3.0;
        } else {
          spec.checkpoint_cost_s = 2.0;
        }
        Result<double> analytic = core::ExpectedCompletionSeconds(
            spec, n, work, core::ExpectedMaxSlowdown(spec, n));
        ASSERT_TRUE(analytic.ok());

        FaultJobConfig config;
        config.num_workers = n;
        config.work_seconds = work;
        config.faults = spec;
        config.link = core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-3};
        config.seed = 99;
        config.trials = 200;
        Result<double> simulated = SimulateExpectedCompletionSeconds(config);
        ASSERT_TRUE(simulated.ok());

        double ape = 100.0 * std::abs(simulated.value() - analytic.value()) /
                     analytic.value();
        EXPECT_LE(ape, 15.0)
            << "recovery=" << core::ToString(recovery) << " sigma=" << sigma
            << " mtbf=" << mtbf << " analytic=" << analytic.value()
            << " des=" << simulated.value();
        ape_sum += ape;
        ++cells;
      }
    }
  }
  EXPECT_LE(ape_sum / cells, 15.0);
}

// The scale scenarios run no faults: their runs stay bit-identical to the
// engine's baselines captured before fault injection existed, pinned by bit
// pattern.
TEST(FaultScenariosTest, FaultFreeRingRunMatchesPreFaultGolden) {
  RingScaleConfig config;
  config.num_nodes = 97;
  config.bits = 97 * 8000;
  config.link = core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-5};
  config.compute_seconds = 3e-6;
  config.straggler_sigma = 0.4;
  config.seed = 7;
  Result<ScaleStats> stats = SimulateRingAllReduceAtScale(config);
  ASSERT_TRUE(stats.ok());
  // 0.004053484560624339 s, pinned by bit pattern.
  EXPECT_EQ(stats.value().seconds,
            std::bit_cast<double>(UINT64_C(0x3f709a62f9f6abd5)));
  EXPECT_EQ(stats.value().engine.events_executed, 18721);
  EXPECT_EQ(stats.value().engine.windows, 219);
  EXPECT_EQ(stats.value().engine.messages_delivered, 18624);
}

TEST(FaultScenariosTest, FaultFreePsRunMatchesPreFaultGolden) {
  PsScaleConfig config;
  config.num_workers = 53;
  config.steps_per_worker = 9;
  config.bits = 64000;
  config.link = core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-5};
  config.compute_seconds = 2e-4;
  config.straggler_sigma = 0.5;
  config.seed = 11;
  Result<ScaleStats> stats = SimulateParameterServerAtScale(config);
  ASSERT_TRUE(stats.ok());
  // 0.0041773908326367473 s, pinned by bit pattern.
  EXPECT_EQ(stats.value().seconds,
            std::bit_cast<double>(UINT64_C(0x3f711c4fd023fbc8)));
  EXPECT_EQ(stats.value().engine.events_executed, 1007);
  EXPECT_EQ(stats.value().engine.windows, 53);
  EXPECT_EQ(stats.value().engine.messages_delivered, 954);
}

}  // namespace
}  // namespace dmlscale::sim
