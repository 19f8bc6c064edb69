#include "core/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/planner.h"

namespace dmlscale::core {
namespace {

FaultSpec CrashSpec(double mtbf = 1000.0, double mttr = 10.0) {
  FaultSpec spec;
  spec.mtbf_seconds = mtbf;
  spec.mttr_seconds = mttr;
  return spec;
}

TEST(FaultSpecTest, DefaultSpecIsDisabledAndValid) {
  FaultSpec spec;
  EXPECT_FALSE(spec.Enabled());
  EXPECT_FALSE(spec.CrashesEnabled());
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, CrashesWithoutRepairTimeAreRejected) {
  FaultSpec spec;
  spec.mtbf_seconds = 100.0;  // mttr left at 0
  Status status = spec.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("mttr_seconds"), std::string::npos);
}

TEST(FaultSpecTest, ReplicaNeedsTakeoverTime) {
  FaultSpec spec = CrashSpec();
  spec.recovery = RecoveryStrategy::kReplicaTakeover;
  Status status = spec.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("takeover_seconds"), std::string::npos);
  spec.takeover_seconds = 3.0;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, SpeculationThresholdMustExceedOne) {
  FaultSpec spec;
  spec.straggler_sigma = 0.5;
  spec.recovery = RecoveryStrategy::kSpeculativeReexec;
  spec.speculation_threshold = 1.0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.speculation_threshold = 1.5;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, NonFiniteFieldsAreRejected) {
  FaultSpec spec = CrashSpec();
  spec.checkpoint_cost_s = std::nan("");
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FaultSpecTest, ToStringMatchesApiKeyMenus) {
  EXPECT_STREQ(ToString(RecoveryStrategy::kCheckpointRestart),
               "checkpoint-restart");
  EXPECT_STREQ(ToString(RecoveryStrategy::kReplicaTakeover), "replica");
  EXPECT_STREQ(ToString(RecoveryStrategy::kSpeculativeReexec), "speculative");
}

TEST(FaultModelTest, StreamsAreDeterministicAndPerNode) {
  FaultModel a(CrashSpec(), 42);
  FaultModel b(CrashSpec(), 42);
  Pcg32 a0 = a.CrashStream(0);
  Pcg32 b0 = b.CrashStream(0);
  Pcg32 a1 = a.CrashStream(1);
  // Same (seed, node) -> bit-identical draw sequence across instances.
  EXPECT_EQ(a.NextUptime(&a0), b.NextUptime(&b0));
  // Different nodes -> different streams.
  Pcg32 a0_again = a.CrashStream(0);
  EXPECT_NE(a.NextUptime(&a0_again), a.NextUptime(&a1));
}

// The satellite statistical test: empirical failure inter-arrival means must
// match the configured MTBF. With 20000 draws the standard error of the mean
// is under 1% of the MTBF, so 3% is a loose-but-real tolerance that still
// catches a mis-parameterized distribution.
TEST(FaultModelTest, ExponentialInterArrivalsMatchConfiguredMtbf) {
  const double mtbf = 750.0;
  FaultModel model(CrashSpec(mtbf), 7);
  Pcg32 rng = model.CrashStream(3);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += model.NextUptime(&rng);
  EXPECT_NEAR(sum / n, mtbf, 0.03 * mtbf);
}

TEST(FaultModelTest, SlowdownIsOneWithoutStragglers) {
  FaultModel model(FaultSpec{}, 1);
  Pcg32 rng(1);
  EXPECT_EQ(model.NextSlowdown(&rng), 1.0);
}

TEST(FaultModelTest, SpeculationCapsTheSlowdownTail) {
  FaultSpec spec;
  spec.straggler_sigma = 1.0;
  spec.recovery = RecoveryStrategy::kSpeculativeReexec;
  spec.speculation_threshold = 2.0;
  FaultModel speculative(spec, 5);
  spec.recovery = RecoveryStrategy::kCheckpointRestart;
  FaultModel plain(spec, 5);
  // Same stream, so the primary draws coincide; the speculative model may
  // only ever shrink a draw, never grow it.
  Pcg32 s_rng(DeriveSeed(5, 1), 1);
  Pcg32 p_rng(DeriveSeed(5, 1), 1);
  double worst_plain = 0.0;
  double worst_spec = 0.0;
  for (int i = 0; i < 5000; ++i) {
    worst_plain = std::max(worst_plain, plain.NextSlowdown(&p_rng));
    worst_spec = std::max(worst_spec, speculative.NextSlowdown(&s_rng));
  }
  EXPECT_GT(worst_plain, 3.0);  // sigma=1 log-normal has a heavy tail
  EXPECT_LT(worst_spec, worst_plain);
}

TEST(AnalyticFormsTest, YoungDalyInterval) {
  // sqrt(2 * 60 * 30000) = sqrt(3.6e6) = 1897.36...
  EXPECT_NEAR(YoungDalyInterval(60.0, 30000.0), std::sqrt(3.6e6), 1e-9);
  EXPECT_EQ(YoungDalyInterval(0.0, 30000.0), 0.0);
}

TEST(AnalyticFormsTest, AvailabilityIsMtbfOverCycle) {
  EXPECT_EQ(Availability(FaultSpec{}), 1.0);
  EXPECT_NEAR(Availability(CrashSpec(990.0, 10.0)), 0.99, 1e-12);
}

TEST(AnalyticFormsTest, CheckpointPlanUsesExplicitIntervalOrYoungDaly) {
  FaultSpec spec = CrashSpec(40000.0, 10.0);
  spec.checkpoint_interval_s = 100.0;
  CheckpointPlan explicit_plan = ResolveCheckpointPlan(spec, 4, 400.0);
  EXPECT_EQ(explicit_plan.segments, 4);
  EXPECT_NEAR(explicit_plan.interval_s, 100.0, 1e-12);

  spec.checkpoint_interval_s = 0.0;
  spec.checkpoint_cost_s = 50.0;
  // Young/Daly: sqrt(2 * 50 * 40000/4) = 1000 -> round(4000/1000) segments.
  CheckpointPlan daly = ResolveCheckpointPlan(spec, 4, 4000.0);
  EXPECT_EQ(daly.segments, 4);

  // Replica recovery keeps no checkpoints: one segment.
  spec.recovery = RecoveryStrategy::kReplicaTakeover;
  spec.takeover_seconds = 3.0;
  EXPECT_EQ(ResolveCheckpointPlan(spec, 4, 4000.0).segments, 1);
}

TEST(AnalyticFormsTest, ExpectedMaxSlowdownGrowsWithClusterSize) {
  FaultSpec spec;
  spec.straggler_sigma = 0.4;
  double j1 = ExpectedMaxSlowdown(spec, 1);
  double j16 = ExpectedMaxSlowdown(spec, 16);
  double j256 = ExpectedMaxSlowdown(spec, 256);
  // E[one log-normal draw] = exp(sigma^2/2).
  EXPECT_NEAR(j1, std::exp(0.08), 0.01);
  EXPECT_GT(j16, j1);
  EXPECT_GT(j256, j16);
  EXPECT_EQ(ExpectedMaxSlowdown(FaultSpec{}, 256), 1.0);

  // Speculation caps the barrier stretch.
  FaultSpec capped = spec;
  capped.recovery = RecoveryStrategy::kSpeculativeReexec;
  capped.speculation_threshold = 1.5;
  EXPECT_LT(ExpectedMaxSlowdown(capped, 256), j256);
}

TEST(AnalyticFormsTest, MaxSlowdownTableHoldsEachIntegral) {
  FaultSpec spec;
  spec.straggler_sigma = 0.4;
  spec.recovery = RecoveryStrategy::kSpeculativeReexec;
  spec.speculation_threshold = 1.5;
  const std::vector<double> table = MaxSlowdownTable(spec, 40);
  ASSERT_EQ(table.size(), 41u);
  EXPECT_EQ(table[0], 1.0);
  for (int n = 1; n <= 40; ++n) {
    EXPECT_EQ(table[static_cast<size_t>(n)], ExpectedMaxSlowdown(spec, n))
        << "n=" << n;
  }
}

TEST(AnalyticFormsTest, FaultFreeCompletionIsSegmentsTimesSegment) {
  FaultSpec spec;
  spec.checkpoint_interval_s = 100.0;
  spec.checkpoint_cost_s = 5.0;
  Result<double> t =
      ExpectedCompletionSeconds(spec, 8, 400.0, ExpectedMaxSlowdown(spec, 8));
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(t.value(), 4 * (100.0 + 5.0), 1e-9);
}

TEST(AnalyticFormsTest, CrashesMakeCompletionSlowerAndMtbfMonotone) {
  FaultSpec spec = CrashSpec(2000.0, 10.0);
  spec.checkpoint_cost_s = 5.0;
  Result<double> faulty =
      ExpectedCompletionSeconds(spec, 8, 400.0, ExpectedMaxSlowdown(spec, 8));
  ASSERT_TRUE(faulty.ok());
  EXPECT_GT(faulty.value(), 400.0);
  spec.mtbf_seconds = 20000.0;
  Result<double> rarer =
      ExpectedCompletionSeconds(spec, 8, 400.0, ExpectedMaxSlowdown(spec, 8));
  ASSERT_TRUE(rarer.ok());
  EXPECT_LT(rarer.value(), faulty.value());
}

TEST(AnalyticFormsTest, SaturatedReplicaTakeoverIsInvalidArgument) {
  FaultSpec spec = CrashSpec(10.0, 1.0);
  spec.recovery = RecoveryStrategy::kReplicaTakeover;
  spec.takeover_seconds = 5.0;
  // lambda = 100/11 > 1/5: takeovers arrive faster than they finish.
  Result<double> t = ExpectedCompletionSeconds(
      spec, 100, 400.0, ExpectedMaxSlowdown(spec, 100));
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("cannot keep up"), std::string::npos);
}

// Strong-scalable base curve for the planner questions:
// t(n, d) = 400 d / n + 0.05 (n - 1).
double Time(int n, double d) { return 400.0 * d / n + 0.05 * (n - 1); }

TEST(CapacityPlannerFaultsTest, FaultAwareTargetNeedsMoreNodesThanPerfect) {
  CapacityPlanner planner(Time, 512);
  FaultSpec spec = CrashSpec(30000.0, 20.0);
  spec.checkpoint_cost_s = 5.0;
  Result<int> perfect = planner.NodesForTargetTime(16.0);
  ASSERT_TRUE(perfect.ok());
  Result<int> faulty = planner.NodesForTargetTimeUnderFaults(
      16.0, spec, MaxSlowdownTable(spec, 512));
  ASSERT_TRUE(faulty.ok());
  // Failures only ever slow a cluster down, so the answer cannot shrink.
  EXPECT_GE(faulty.value(), perfect.value());
}

TEST(CapacityPlannerFaultsTest, ImpossibleFaultTargetIsNotFound) {
  CapacityPlanner planner(Time, 64);
  FaultSpec spec = CrashSpec(500.0, 50.0);
  spec.checkpoint_cost_s = 10.0;
  Result<int> n = planner.NodesForTargetTimeUnderFaults(
      1.0, spec, MaxSlowdownTable(spec, 64));
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kNotFound);
}

TEST(CapacityPlannerFaultsTest, OptimalCheckpointIntervalIsYoungDaly) {
  CapacityPlanner planner(Time, 64);
  FaultSpec spec = CrashSpec(40000.0, 10.0);
  spec.checkpoint_cost_s = 50.0;
  Result<double> interval = planner.OptimalCheckpointInterval(4, spec);
  ASSERT_TRUE(interval.ok());
  EXPECT_NEAR(interval.value(), YoungDalyInterval(50.0, 10000.0), 1e-9);
  // No checkpoint price, no optimum to compute.
  spec.checkpoint_cost_s = 0.0;
  EXPECT_EQ(planner.OptimalCheckpointInterval(4, spec).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dmlscale::core
