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

// Node 1 hears of every crash of node 0 half a second (one window) later,
// so the notification times show when the chain crashed.
FaultInjector::Options NotifyingOptions(int notify_type) {
  FaultInjector::Options options;
  options.spec = CrashSpec();
  options.seed = 5;
  options.notify_node = 1;
  options.notify_type = notify_type;
  options.notify_delay_s = 0.5;
  return options;
}

TEST(FaultInjectorTest, CrashRecoverCycleTracksCounters) {
  const core::FaultSpec spec = CrashSpec();
  const uint64_t seed = 5;
  core::FaultModel model(spec, seed);
  Pcg32 rng = model.CrashStream(0);
  const double t_crash = model.NextUptime(&rng);       // node down here
  const double t_recover = t_crash + spec.mttr_seconds;
  const double next_uptime = model.NextUptime(&rng);   // drawn on recovery
  const double t_second_crash = t_recover + next_uptime;

  Engine engine(2, HalfSecondWindows());
  std::vector<double> notified;
  int notify = engine.AddHandler(
      [&](const Event& event) { notified.push_back(event.time); });
  FaultInjector injector(&engine, NotifyingOptions(notify));

  // Probe mid-downtime and mid-uptime, then retire mid-second-downtime so
  // the chain ends.
  auto expect_counts = [&](int64_t crashes, int64_t recoveries) {
    return engine.AddHandler([&injector, crashes, recoveries](const Event&) {
      EXPECT_EQ(injector.TotalCounters().crashes, crashes);
      EXPECT_EQ(injector.TotalCounters().recoveries, recoveries);
    });
  };
  int down = expect_counts(1, 0);
  int up = expect_counts(1, 1);
  int retire = engine.AddHandler(
      [&](const Event& event) { injector.Retire(event.node); });
  ASSERT_TRUE(
      engine.ScheduleAt(0, t_crash + 0.5 * spec.mttr_seconds, down).ok());
  ASSERT_TRUE(engine.ScheduleAt(0, t_recover + 0.5 * next_uptime, up).ok());
  ASSERT_TRUE(
      engine
          .ScheduleAt(0, t_second_crash + 0.5 * spec.mttr_seconds, retire)
          .ok());
  ASSERT_TRUE(injector.Arm(0, 1).ok());
  ASSERT_TRUE(engine.Run().ok());

  // The second crash comes exactly one drawn uptime after the recovery.
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_EQ(notified[0], t_crash + 0.5);
  EXPECT_EQ(notified[1], t_second_crash + 0.5);
  FaultInjector::Counters counters = injector.TotalCounters();
  EXPECT_EQ(counters.crashes, 2);
  EXPECT_EQ(counters.recoveries, 1);
}

TEST(FaultInjectorTest, CrashNotificationCarriesNode) {
  const core::FaultSpec spec = CrashSpec();
  const double t_crash = FirstUptime(spec, 5, 0);

  Engine engine(2, HalfSecondWindows());
  // The notify handler must be registered before the injector so its type id
  // exists; the scenario pattern (fault_scenarios.cc) does the same.
  std::vector<Event> notifications;
  int notify = engine.AddHandler(
      [&](const Event& event) { notifications.push_back(event); });
  FaultInjector injector(&engine, NotifyingOptions(notify));
  int retire = engine.AddHandler(
      [&](const Event& event) { injector.Retire(event.node); });
  ASSERT_TRUE(
      engine.ScheduleAt(0, t_crash + 0.5 * spec.mttr_seconds, retire).ok());
  ASSERT_TRUE(injector.Arm(0, 1).ok());  // only node 0 is fault-prone
  ASSERT_TRUE(engine.Run().ok());

  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].node, 1);
  EXPECT_EQ(notifications[0].time, t_crash + 0.5);
  EXPECT_EQ(notifications[0].a, 0);  // which node died
  EXPECT_EQ(injector.TotalCounters().crashes, 1);
  EXPECT_EQ(injector.TotalCounters().recoveries, 0);
}

TEST(FaultInjectorTest, ArmRejectsBadRanges) {
  Engine engine(4, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = CrashSpec();
  FaultInjector injector(&engine, options);

  Status empty = injector.Arm(2, 2);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("non-empty slice"), std::string::npos);
  EXPECT_EQ(injector.Arm(0, 5).code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, RetirementSilencesTheFaultChain) {
  const core::FaultSpec spec = CrashSpec();
  Engine engine(1, HalfSecondWindows());
  FaultInjector::Options options;
  options.spec = spec;
  options.seed = 5;
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
}

}  // namespace
}  // namespace dmlscale::sim
