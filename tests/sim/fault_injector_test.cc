#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/faults.h"
#include "sim/event_engine.h"

namespace dmlscale::sim {
namespace {

core::FaultSpec CrashSpec() {
  core::FaultSpec spec;
  spec.mtbf_seconds = 100.0;
  spec.mttr_seconds = 10.0;
  return spec;
}

// Every engine here steps 0.5 s windows: a crash notification's Send must
// not undercut the lookahead, and the notify delay below is 0.5 s.
EngineOptions HalfSecondWindows() {
  EngineOptions options;
  options.lookahead = 0.5;
  return options;
}

// The injector's streams are core::FaultModel streams, so a test can replay
// the exact uptime draws the injector will make and place probe events at
// known up/down instants.
double FirstUptime(const core::FaultSpec& spec, uint64_t seed, int node) {
  core::FaultModel model(spec, seed);
  Pcg32 rng = model.CrashStream(node);
  return model.NextUptime(&rng);
}

TEST(FaultInjectorTest, CrashRecoverCycleTracksMaskIncarnationAndCounters) {
  const core::FaultSpec spec = CrashSpec();
  const uint64_t seed = 5;
  core::FaultModel model(spec, seed);
  Pcg32 rng = model.CrashStream(0);
  const double t_crash = model.NextUptime(&rng);       // node down here
  const double t_recover = t_crash + spec.mttr_seconds;
  const double next_uptime = model.NextUptime(&rng);   // drawn on recovery

  Engine engine(1, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = spec;
  options.seed = seed;
  options.retry.timeout_s = 1.0;
  FaultInjector injector(&engine, options);

  std::vector<double> crash_times;
  std::vector<double> recover_times;
  injector.SetOnCrash([&](const Event& event) {
    crash_times.push_back(event.time);
    EXPECT_FALSE(injector.IsUp(event.node));
  });
  injector.SetOnRecover([&](const Event& event) {
    recover_times.push_back(event.time);
    EXPECT_TRUE(injector.IsUp(event.node));
  });
  // Probe mid-downtime, then retire mid-second-uptime so the chain ends.
  int probe = engine.AddHandler([&](const Event&) {
    EXPECT_FALSE(injector.IsUp(0));
    EXPECT_EQ(injector.Incarnation(0), 1);
  });
  int retire = engine.AddHandler([&](const Event&) {
    EXPECT_TRUE(injector.IsUp(0));
    injector.Retire(0);
  });
  ASSERT_TRUE(engine.ScheduleAt(0, t_crash + 0.5 * spec.mttr_seconds, probe)
                  .ok());
  ASSERT_TRUE(
      engine.ScheduleAt(0, t_recover + 0.5 * next_uptime, retire).ok());
  ASSERT_TRUE(injector.Arm(0, 1).ok());
  ASSERT_TRUE(engine.Run().ok());

  ASSERT_EQ(crash_times.size(), 1u);
  ASSERT_EQ(recover_times.size(), 1u);
  EXPECT_EQ(crash_times[0], t_crash);
  EXPECT_EQ(recover_times[0], t_recover);
  FaultInjector::Counters counters = injector.TotalCounters();
  EXPECT_EQ(counters.crashes, 1);
  EXPECT_EQ(counters.recoveries, 1);
  EXPECT_EQ(injector.Incarnation(0), 1);
  EXPECT_TRUE(injector.IsUp(0));
}

TEST(FaultInjectorTest, AdmitOrRetryBacksOffThenDrops) {
  const core::FaultSpec spec = CrashSpec();
  const uint64_t seed = 5;
  const double t_crash = FirstUptime(spec, seed, 0);

  Engine engine(1, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = spec;
  options.seed = seed;
  options.retry.max_attempts = 3;
  options.retry.timeout_s = 1.0;
  options.retry.backoff = 2.0;
  FaultInjector injector(&engine, options);
  injector.SetOnRecover([&](const Event& event) {
    injector.Retire(event.node);  // one crash cycle is enough
  });

  int admitted = 0;
  std::vector<double> delivery_times;
  int worker = engine.AddHandler([&](const Event& event) {
    delivery_times.push_back(event.time);
    if (!injector.AdmitOrRetry(event)) return;
    ++admitted;
  });
  // Lands mid-downtime: retried at +1 and +2 (both still down), then dropped.
  const double t0 = t_crash + 0.5 * spec.mttr_seconds;
  ASSERT_TRUE(engine.ScheduleAt(0, t0, worker).ok());
  ASSERT_TRUE(injector.Arm(0, 1).ok());
  ASSERT_TRUE(engine.Run().ok());

  EXPECT_EQ(admitted, 0);
  ASSERT_EQ(delivery_times.size(), 3u);
  EXPECT_EQ(delivery_times[0], t0);
  EXPECT_EQ(delivery_times[1], t0 + 1.0);
  EXPECT_EQ(delivery_times[2], t0 + 1.0 + 2.0);
  FaultInjector::Counters counters = injector.TotalCounters();
  EXPECT_EQ(counters.retries, 2);
  EXPECT_EQ(counters.drops, 1);
}

TEST(FaultInjectorTest, AdmitOrRetryAdmitsAfterRecovery) {
  const core::FaultSpec spec = CrashSpec();
  const uint64_t seed = 5;
  const double t_crash = FirstUptime(spec, seed, 0);

  Engine engine(1, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = spec;
  options.seed = seed;
  options.retry.max_attempts = 32;  // enough to outlive the downtime
  options.retry.timeout_s = 1.0;
  options.retry.backoff = 1.0;      // constant 1 s redelivery
  FaultInjector injector(&engine, options);
  injector.SetOnRecover([&](const Event& event) {
    injector.Retire(event.node);
  });

  int admitted = 0;
  int worker = engine.AddHandler([&](const Event& event) {
    if (!injector.AdmitOrRetry(event)) return;
    ++admitted;
    EXPECT_GE(event.time, t_crash + spec.mttr_seconds);
    EXPECT_EQ(injector.Incarnation(event.node), 1);
  });
  ASSERT_TRUE(
      engine.ScheduleAt(0, t_crash + 0.5 * spec.mttr_seconds, worker).ok());
  ASSERT_TRUE(injector.Arm(0, 1).ok());
  ASSERT_TRUE(engine.Run().ok());

  EXPECT_EQ(admitted, 1);
  EXPECT_GT(injector.TotalCounters().retries, 0);
  EXPECT_EQ(injector.TotalCounters().drops, 0);
}

TEST(FaultInjectorTest, CrashNotificationCarriesNodeAndIncarnation) {
  const core::FaultSpec spec = CrashSpec();
  const uint64_t seed = 5;
  const double t_crash = FirstUptime(spec, seed, 0);

  Engine engine(2, HalfSecondWindows());
  // The notify handler must be registered before the injector so its type id
  // exists; the scenario pattern (fault_scenarios.cc) does the same.
  std::vector<Event> notifications;
  int notify = engine.AddHandler(
      [&](const Event& event) { notifications.push_back(event); });

  FaultInjector::Options options;
  options.spec = spec;
  options.seed = seed;
  options.retry.timeout_s = 1.0;
  options.notify_node = 1;
  options.notify_type = notify;
  options.notify_delay_s = 0.5;
  FaultInjector injector(&engine, options);
  injector.SetOnRecover([&](const Event& event) {
    injector.Retire(event.node);
  });
  ASSERT_TRUE(injector.Arm(0, 1).ok());  // only node 0 is fault-prone
  ASSERT_TRUE(engine.Run().ok());

  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].node, 1);
  EXPECT_EQ(notifications[0].time, t_crash + 0.5);
  EXPECT_EQ(notifications[0].a, 0);  // which node died
  EXPECT_EQ(notifications[0].b, 1);  // its new incarnation
}

TEST(FaultInjectorTest, LinkDegradationTogglesLinkFactor) {
  core::FaultSpec spec;
  spec.link_mtbf_seconds = 50.0;
  spec.link_degrade_seconds = 5.0;
  spec.link_degrade_factor = 3.0;
  const uint64_t seed = 9;
  core::FaultModel model(spec, seed);
  Pcg32 rng = model.LinkStream(0);
  const double t_degrade = model.NextLinkUptime(&rng);
  const double t_restore = t_degrade + spec.link_degrade_seconds;
  const double next_up = model.NextLinkUptime(&rng);

  Engine engine(1, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = spec;
  options.seed = seed;
  FaultInjector injector(&engine, options);
  int probe_degraded = engine.AddHandler([&](const Event&) {
    EXPECT_EQ(injector.LinkFactor(0), 3.0);
  });
  int probe_restored = engine.AddHandler([&](const Event&) {
    EXPECT_EQ(injector.LinkFactor(0), 1.0);
    injector.Retire(0);
  });
  ASSERT_TRUE(engine.ScheduleAt(0, t_degrade + 2.5, probe_degraded).ok());
  ASSERT_TRUE(
      engine.ScheduleAt(0, t_restore + 0.5 * next_up, probe_restored).ok());
  ASSERT_TRUE(injector.Arm(0, 1).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(injector.TotalCounters().degrades, 1);
  EXPECT_EQ(injector.TotalCounters().crashes, 0);
}

TEST(FaultInjectorTest, ArmRejectsBadRangesAndZeroTimeout) {
  Engine engine(4, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = CrashSpec();
  options.retry.timeout_s = 1.0;
  FaultInjector injector(&engine, options);

  Status empty = injector.Arm(2, 2);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("non-empty slice"), std::string::npos);
  EXPECT_EQ(injector.Arm(0, 5).code(), StatusCode::kInvalidArgument);

  FaultInjector::Options no_timeout;
  no_timeout.spec = CrashSpec();  // retry.timeout_s left at 0
  FaultInjector stuck(&engine, no_timeout);
  Status status = stuck.Arm(0, 4);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("timeout_s"), std::string::npos);
}

TEST(FaultInjectorTest, RetirementSilencesTheFaultChain) {
  const core::FaultSpec spec = CrashSpec();
  Engine engine(1, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = spec;
  options.seed = 5;
  options.retry.timeout_s = 1.0;
  FaultInjector injector(&engine, options);
  // Retire before the first crash ever fires: the armed chain must become a
  // no-op (counters stay zero) and the run must drain.
  int retire = engine.AddHandler([&](const Event& event) {
    injector.Retire(event.node);
  });
  ASSERT_TRUE(engine.ScheduleAt(0, 1e-9, retire).ok());
  ASSERT_TRUE(injector.Arm(0, 1).ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(injector.TotalCounters().crashes, 0);
  EXPECT_TRUE(injector.IsUp(0));
}

}  // namespace
}  // namespace dmlscale::sim
