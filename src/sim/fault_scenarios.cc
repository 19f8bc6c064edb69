#include "sim/fault_scenarios.h"

#include <algorithm>

#include "common/random.h"

namespace dmlscale::sim {

namespace {

// Coordinator RNG salt: keeps the jitter stream out of both the injector's
// salted space and any DeriveSeed(seed, node) worker space.
constexpr uint64_t kCoordinatorSalt = 0xC0DA112ULL;

double WireSeconds(int64_t bits, const core::LinkSpec& link) {
  return static_cast<double>(bits) / link.bandwidth_bps + link.latency_s;
}

Result<FaultJobStats> RunOneTrial(const FaultJobConfig& config,
                                  uint64_t trial_seed) {
  const int n = config.num_workers;
  const int coordinator = n;
  const double wire = WireSeconds(config.control_bits, config.link);
  const core::CheckpointPlan plan =
      core::ResolveCheckpointPlan(config.faults, n, config.work_seconds);
  const core::FaultModel model(config.faults,
                               DeriveSeed(trial_seed, kFaultSeedSalt));
  const bool replica =
      config.faults.recovery == core::RecoveryStrategy::kReplicaTakeover;

  EngineOptions options;
  options.lookahead = wire;
  options.max_events = config.max_events;
  options.exec = config.exec;
  Engine engine(n + 1, options);

  // Coordinator-owned state: only handlers dispatched on `coordinator`
  // touch it, so it is shard-invariant by the engine's contract.
  Pcg32 coord_rng(DeriveSeed(trial_seed, kCoordinatorSalt));
  int64_t epoch = 0;          // bumps on every disruption; stamps events
  int64_t segments_done = 0;
  int64_t disruptions = 0;
  double seg_end = 0.0;       // pending segment's scheduled commit time
  double done_time = -1.0;

  FaultInjector* inj = nullptr;
  int kSegDone = -1;
  int kResume = -1;
  int kStop = -1;

  // Draws the segment's wall time (interval * max of n straggler slowdowns
  // + checkpoint cost) and schedules its epoch-stamped commit.
  auto start_segment = [&](double now) {
    double slowest = 1.0;
    if (config.faults.straggler_sigma > 0.0) {
      slowest = 0.0;
      for (int i = 0; i < n; ++i) {
        slowest = std::max(slowest, model.NextSlowdown(&coord_rng));
      }
    }
    seg_end = now + plan.interval_s * slowest +
              config.faults.checkpoint_cost_s;
    engine.MustScheduleAt(coordinator, seg_end, kSegDone, epoch);
  };

  kSegDone = engine.AddHandler([&](const Event& event) {
    if (event.a != epoch) return;  // a disruption invalidated this commit
    ++segments_done;
    if (segments_done >= plan.segments) {
      done_time = event.time;
      for (int w = 0; w < n; ++w) {
        engine.Send(coordinator, w, wire, event.time, kStop);
      }
      return;
    }
    start_segment(event.time);
  });
  kResume = engine.AddHandler([&](const Event& event) {
    if (event.a != epoch) return;
    start_segment(event.time);
  });
  kStop = engine.AddHandler([&](const Event& event) {
    inj->Retire(event.node);
  });
  const int kCrashNotify = engine.AddHandler([&](const Event& event) {
    if (done_time >= 0.0) return;  // late notification; job committed
    ++disruptions;
    ++epoch;
    if (replica) {
      // The hot spare resumes the segment where it stood, takeover later.
      seg_end = std::max(seg_end, event.time) +
                config.faults.takeover_seconds;
      engine.MustScheduleAt(coordinator, seg_end, kSegDone, epoch);
    } else {
      // Work since the last checkpoint is lost: wait out the repair, then
      // redo the segment from the checkpoint.
      engine.MustScheduleAt(coordinator,
                            event.time + config.faults.mttr_seconds, kResume,
                            epoch);
    }
  });

  FaultInjector::Options fault_options;
  fault_options.spec = config.faults;
  fault_options.seed = DeriveSeed(trial_seed, kFaultSeedSalt);
  fault_options.notify_node = coordinator;
  fault_options.notify_type = kCrashNotify;
  fault_options.notify_delay_s = wire;
  FaultInjector injector(&engine, fault_options);
  inj = &injector;

  DMLSCALE_RETURN_NOT_OK(injector.Arm(0, n));
  start_segment(0.0);

  DMLSCALE_ASSIGN_OR_RETURN(EngineStats engine_stats, engine.Run());
  if (done_time < 0.0) {
    return Status::Internal("fault-aware job drained without committing");
  }
  FaultJobStats stats;
  stats.completion_seconds = done_time;
  stats.segments_completed = segments_done;
  stats.disruptions = disruptions;
  stats.faults = injector.TotalCounters();
  stats.engine = engine_stats;
  return stats;
}

Status ValidateConfig(const FaultJobConfig& config) {
  if (config.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (config.work_seconds <= 0.0) {
    return Status::InvalidArgument("work_seconds must be > 0");
  }
  if (config.trials < 1) {
    return Status::InvalidArgument("trials must be >= 1");
  }
  if (config.control_bits < 0 || config.max_events < 0) {
    return Status::InvalidArgument("fault job parameters must be >= 0");
  }
  DMLSCALE_RETURN_NOT_OK(config.link.Validate());
  DMLSCALE_RETURN_NOT_OK(config.faults.Validate());
  if (WireSeconds(config.control_bits, config.link) <= 0.0) {
    return Status::InvalidArgument(
        "fault job needs a positive control wire time (the engine "
        "lookahead); give the link a latency");
  }
  return Status::OK();
}

}  // namespace

Result<FaultJobStats> SimulateFaultAwareJob(const FaultJobConfig& config) {
  DMLSCALE_RETURN_NOT_OK(ValidateConfig(config));
  return RunOneTrial(config, config.seed);
}

Result<double> SimulateExpectedCompletionSeconds(
    const FaultJobConfig& config) {
  DMLSCALE_RETURN_NOT_OK(ValidateConfig(config));
  double total = 0.0;
  for (int trial = 0; trial < config.trials; ++trial) {
    DMLSCALE_ASSIGN_OR_RETURN(
        FaultJobStats stats,
        RunOneTrial(config, DeriveSeed(config.seed,
                                       static_cast<uint64_t>(trial))));
    total += stats.completion_seconds;
  }
  return total / config.trials;
}

}  // namespace dmlscale::sim
