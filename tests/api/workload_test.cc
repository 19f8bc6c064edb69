#include "api/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "api/presets.h"
#include "api/scenario.h"

namespace dmlscale::api {
namespace {

Result<Scenario> SparkScenario() {
  return Scenario::Builder()
      .Name("workload-test")
      .Hardware(presets::SparkCluster(16))
      .Compute("perfectly-parallel", {{"total_flops", 1e9}})
      .Comm("spark-gd", {{"bits", 64e6}})
      .Build();
}

Result<Scenario> SharedMemoryScenario() {
  return Scenario::Builder()
      .Name("workload-test-shm")
      .Hardware(presets::SharedMemoryServer(80))
      .Compute("perfectly-parallel", {{"total_flops", 1e9}})
      .SharedMemory()
      .Build();
}

NnTrainerWorkloadOptions SmallTrainerOptions() {
  NnTrainerWorkloadOptions options;
  options.layer_sizes = {8, 16, 4};
  options.examples = 64;
  options.batch_size = 16;
  options.epochs = 2;
  options.seed = 7;
  return options;
}

TEST(WorkloadRegistryTest, BuiltInsAreRegistered) {
  EXPECT_TRUE(Workloads().Contains("modeled"));
  EXPECT_TRUE(Workloads().Contains("nn-trainer"));
  EXPECT_TRUE(Workloads().Contains("bp-sweep"));
}

TEST(WorkloadRegistryTest, MissListsTheMenu) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  auto miss = Workloads().Create("nn-trainor", {}, *scenario);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_NE(miss.status().message().find("nn-trainer"), std::string::npos);
  EXPECT_NE(miss.status().message().find("bp-sweep"), std::string::npos);
}

TEST(WorkloadRegistryTest, TypodParameterIsRejected) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  // A typo, and `wall_clock`, which the measured workloads do not take
  // (they price only with the work-clock): both list the accepted keys.
  struct Case {
    std::string workload, key, accepted;
  };
  const std::string trainer_keys =
      "width_scale, examples, batch, epochs, seed, threads";
  for (const Case& c :
       {Case{"nn-trainer", "epocs", trainer_keys},
        Case{"nn-trainer", "wall_clock", trainer_keys},
        Case{"bp-sweep", "wall_clock",
             "rows, cols, states, coupling, max_iterations, seed, threads"}}) {
    auto workload = Workloads().Create(c.workload, {{c.key, 2.0}}, *scenario);
    ASSERT_FALSE(workload.ok()) << c.workload << " " << c.key;
    EXPECT_EQ(workload.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(workload.status().message(), "unknown parameter '" + c.key +
                                               "' (accepted: " + c.accepted +
                                               ")");
  }
}

TEST(WorkloadRegistryTest, MalformedIntegerKeysAreRejected) {
  // Each integer key is narrowed from a double: NaN, inf, out-of-range and
  // fractional values must be an InvalidArgument naming the key, never an
  // undefined cast.
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  struct Case {
    std::string workload, key;
  };
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const Case& c :
       {Case{"nn-trainer", "examples"}, Case{"nn-trainer", "batch"},
        Case{"nn-trainer", "epochs"}, Case{"nn-trainer", "seed"},
        Case{"nn-trainer", "threads"}, Case{"bp-sweep", "rows"},
        Case{"bp-sweep", "cols"}, Case{"bp-sweep", "states"},
        Case{"bp-sweep", "max_iterations"}, Case{"bp-sweep", "seed"},
        Case{"bp-sweep", "threads"}}) {
    for (double value :
         {kNan, std::numeric_limits<double>::infinity(), 1e12, 2.5}) {
      auto workload = Workloads().Create(c.workload, {{c.key, value}},
                                         *scenario);
      ASSERT_FALSE(workload.ok()) << c.workload << " " << c.key << "=" << value;
      EXPECT_EQ(workload.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(workload.status().message().find(c.key), std::string::npos)
          << workload.status().message();
    }
  }
  auto nan_scale =
      Workloads().Create("nn-trainer", {{"width_scale", kNan}}, *scenario);
  ASSERT_FALSE(nan_scale.ok());
  EXPECT_EQ(nan_scale.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_scale.status().message().find("width_scale"),
            std::string::npos);
}

TEST(WorkloadRegistryTest, FactoryBuildsUsableWorkload) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  auto workload = Workloads().Create(
      "nn-trainer",
      {{"width_scale", 0.01}, {"examples", 64.0}, {"batch", 16.0}},
      *scenario);
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE((*workload)->measured());
  auto sample = (*workload)->Measure(2);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->nodes, 2);
  EXPECT_GT(sample->seconds, 0.0);
}

TEST(ModeledWorkloadTest, EvaluatesTheScenarioClosedForm) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  ModeledWorkload workload(*scenario);
  EXPECT_FALSE(workload.measured());
  for (int n : {1, 3, 9}) {
    auto sample = workload.Measure(n);
    ASSERT_TRUE(sample.ok());
    EXPECT_DOUBLE_EQ(sample->seconds, scenario->Seconds(n));
  }
  EXPECT_FALSE(workload.Measure(0).ok());
}

TEST(WorkloadTest, MeasureScheduleRejectsEmptyAndPropagatesErrors) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  ModeledWorkload workload(*scenario);
  EXPECT_FALSE(workload.MeasureSchedule({}).ok());
  EXPECT_FALSE(workload.MeasureSchedule({1, 0}).ok());
  auto samples = workload.MeasureSchedule({1, 2, 4});
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->size(), 3u);
}

TEST(NnTrainerWorkloadTest, RejectsInvalidOptions) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  NnTrainerWorkloadOptions options = SmallTrainerOptions();
  options.layer_sizes = {8};
  EXPECT_FALSE(NnTrainerWorkload::Create(*scenario, options).ok());
  options = SmallTrainerOptions();
  options.batch_size = options.examples + 1;
  EXPECT_FALSE(NnTrainerWorkload::Create(*scenario, options).ok());
  options = SmallTrainerOptions();
  options.threads = 0;
  EXPECT_FALSE(NnTrainerWorkload::Create(*scenario, options).ok());
}

TEST(NnTrainerWorkloadTest, SamplesAreDeterministicAndOrderIndependent) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  auto a = NnTrainerWorkload::Create(*scenario, SmallTrainerOptions());
  auto b = NnTrainerWorkload::Create(*scenario, SmallTrainerOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different measurement order, identical samples (per-n RNG streams).
  auto a1 = (*a)->Measure(1);
  auto a4 = (*a)->Measure(4);
  auto b4 = (*b)->Measure(4);
  auto b1 = (*b)->Measure(1);
  ASSERT_TRUE(a1.ok() && a4.ok() && b4.ok() && b1.ok());
  EXPECT_EQ(a1->seconds, b1->seconds);
  EXPECT_EQ(a4->seconds, b4->seconds);
}

TEST(NnTrainerWorkloadTest, ThreadCountNeverChangesTheSample) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  NnTrainerWorkloadOptions threaded = SmallTrainerOptions();
  threaded.threads = 3;
  auto serial = NnTrainerWorkload::Create(*scenario, SmallTrainerOptions());
  auto parallel = NnTrainerWorkload::Create(*scenario, threaded);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (int n : {2, 4, 6}) {
    auto s = (*serial)->Measure(n);
    auto p = (*parallel)->Measure(n);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(s->seconds, p->seconds) << "n=" << n;
  }
}

TEST(NnTrainerWorkloadTest, ReallyTrains) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  auto workload = NnTrainerWorkload::Create(*scenario, SmallTrainerOptions());
  ASSERT_TRUE(workload.ok());
  ASSERT_TRUE((*workload)->Measure(2).ok());
  const std::vector<double>& loss = (*workload)->last_epoch_loss();
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_LT(loss[1], loss[0]);
}

TEST(NnTrainerWorkloadTest, ShardingCostsShowUpInTheSample) {
  auto scenario = SparkScenario();
  ASSERT_TRUE(scenario.ok());
  auto workload = NnTrainerWorkload::Create(*scenario, SmallTrainerOptions());
  ASSERT_TRUE(workload.ok());
  auto one = (*workload)->Measure(1);
  auto four = (*workload)->Measure(4);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  // Four shards quarter the bottleneck compute but pay reduction +
  // communication; the sample must be strictly between "free parallelism"
  // and "no parallelism".
  EXPECT_GT(four->seconds, one->seconds / 4.0);
}

TEST(BpSweepWorkloadTest, RejectsInvalidOptions) {
  auto scenario = SharedMemoryScenario();
  ASSERT_TRUE(scenario.ok());
  BpSweepWorkloadOptions options;
  options.grid_rows = 1;
  EXPECT_FALSE(BpSweepWorkload::Create(*scenario, options).ok());
  options = BpSweepWorkloadOptions{};
  options.states = 1;
  EXPECT_FALSE(BpSweepWorkload::Create(*scenario, options).ok());
}

TEST(BpSweepWorkloadTest, DeterministicAndConverges) {
  auto scenario = SharedMemoryScenario();
  ASSERT_TRUE(scenario.ok());
  BpSweepWorkloadOptions options;
  options.grid_rows = 12;
  options.grid_cols = 12;
  options.max_iterations = 200;
  auto a = BpSweepWorkload::Create(*scenario, options);
  auto b = BpSweepWorkload::Create(*scenario, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto sa = (*a)->Measure(4);
  auto sb = (*b)->Measure(4);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa->seconds, sb->seconds);
  EXPECT_TRUE((*a)->last_converged());
  EXPECT_GT((*a)->last_iterations(), 0);
}

TEST(BpSweepWorkloadTest, ThreadCountNeverChangesTheSample) {
  auto scenario = SharedMemoryScenario();
  ASSERT_TRUE(scenario.ok());
  BpSweepWorkloadOptions options;
  options.grid_rows = 12;
  options.grid_cols = 12;
  BpSweepWorkloadOptions threaded = options;
  threaded.threads = 3;
  auto serial = BpSweepWorkload::Create(*scenario, options);
  auto parallel = BpSweepWorkload::Create(*scenario, threaded);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (int n : {2, 5}) {
    auto s = (*serial)->Measure(n);
    auto p = (*parallel)->Measure(n);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(s->seconds, p->seconds) << "n=" << n;
  }
}

TEST(BpSweepWorkloadTest, DistributedScenarioPricesCutEdges) {
  auto shm = SharedMemoryScenario();
  ASSERT_TRUE(shm.ok());
  // Same workload on a distributed scenario: identical compute, plus the
  // cut-edge message volume on the (slow) wire.
  auto distributed = Scenario::Builder()
                         .Name("workload-test-dist")
                         .Hardware(presets::SharedMemoryServer(80).node)
                         .Link(core::LinkSpec{.bandwidth_bps = 1e6})
                         .MaxNodes(80)
                         .Compute("perfectly-parallel", {{"total_flops", 1e9}})
                         .Comm("fixed-volume", {{"bits", 1e6}})
                         .Build();
  ASSERT_TRUE(distributed.ok());
  BpSweepWorkloadOptions options;
  options.grid_rows = 12;
  options.grid_cols = 12;
  auto free_comm = BpSweepWorkload::Create(*shm, options);
  auto wire_comm = BpSweepWorkload::Create(*distributed, options);
  ASSERT_TRUE(free_comm.ok());
  ASSERT_TRUE(wire_comm.ok());
  auto f = (*free_comm)->Measure(4);
  auto w = (*wire_comm)->Measure(4);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(w.ok());
  EXPECT_GT(w->seconds, f->seconds);
  // One worker has no cut edges: the two scenarios price identically.
  auto f1 = (*free_comm)->Measure(1);
  auto w1 = (*wire_comm)->Measure(1);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(w1.ok());
  EXPECT_EQ(f1->seconds, w1->seconds);
}

}  // namespace
}  // namespace dmlscale::api
