#include "core/faults.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dmlscale::core {

namespace {

// Node i's crash stream is DeriveSeed index 3i, disjoint from consumer seed
// spaces (scenarios salt their injector seed; see sim/fault_injector.h).
// The stride is part of the pinned outputs: the fault-DES goldens draw
// from index 3i, and indices 3i + 1 and 3i + 2 stay unused.
constexpr uint64_t kStreamsPerNode = 3;

// Standard normal CDF.
double Phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

const char* ToString(RecoveryStrategy strategy) {
  switch (strategy) {
    case RecoveryStrategy::kCheckpointRestart:
      return "checkpoint-restart";
    case RecoveryStrategy::kReplicaTakeover:
      return "replica";
    case RecoveryStrategy::kSpeculativeReexec:
      return "speculative";
  }
  return "unknown";
}

Status FaultSpec::Validate() const {
  if (!std::isfinite(mtbf_seconds) || !std::isfinite(mttr_seconds) ||
      !std::isfinite(straggler_sigma) ||
      !std::isfinite(checkpoint_interval_s) ||
      !std::isfinite(checkpoint_cost_s) || !std::isfinite(takeover_seconds) ||
      !std::isfinite(speculation_threshold)) {
    return Status::InvalidArgument("fault spec fields must be finite");
  }
  if (straggler_sigma < 0.0) {
    return Status::InvalidArgument("straggler_sigma must be >= 0");
  }
  if (checkpoint_interval_s < 0.0 || checkpoint_cost_s < 0.0 ||
      takeover_seconds < 0.0) {
    return Status::InvalidArgument(
        "checkpoint_interval_s, checkpoint_cost_s, and takeover_seconds must "
        "be >= 0");
  }
  if (CrashesEnabled()) {
    if (mttr_seconds <= 0.0) {
      return Status::InvalidArgument(
          "crashes enabled (mtbf_seconds > 0) but mttr_seconds <= 0; repair "
          "must take time");
    }
    if (recovery == RecoveryStrategy::kReplicaTakeover &&
        takeover_seconds <= 0.0) {
      return Status::InvalidArgument(
          "recovery=replica requires takeover_seconds > 0");
    }
  }
  if (recovery == RecoveryStrategy::kSpeculativeReexec &&
      speculation_threshold <= 1.0) {
    return Status::InvalidArgument(
        "speculation_threshold must be > 1 (a multiple of the median)");
  }
  return Status::OK();
}

FaultModel::FaultModel(FaultSpec spec, uint64_t seed)
    : spec_(spec), seed_(seed) {
  DMLSCALE_CHECK_MSG(spec_.Validate().ok(), "invalid FaultSpec");
}

Pcg32 FaultModel::CrashStream(int node) const {
  uint64_t index = kStreamsPerNode * static_cast<uint64_t>(node);
  return Pcg32(DeriveSeed(seed_, index), index);
}

double FaultModel::NextUptime(Pcg32* rng) const {
  DMLSCALE_CHECK(spec_.CrashesEnabled());
  // Inverse-CDF exponential draw. NextDouble() is in [0, 1), so 1 - u is in
  // (0, 1] and the log is finite.
  return -spec_.mtbf_seconds * std::log(1.0 - rng->NextDouble());
}

double FaultModel::NextSlowdown(Pcg32* rng) const {
  if (spec_.straggler_sigma <= 0.0) return 1.0;
  double x = rng->NextLogNormal(spec_.straggler_sigma);
  if (spec_.recovery == RecoveryStrategy::kSpeculativeReexec &&
      x > spec_.speculation_threshold) {
    // The backup copy starts once the straggler is `threshold`x late and
    // races the original: effective time is whichever finishes first.
    double backup = rng->NextLogNormal(spec_.straggler_sigma);
    x = std::min(x, spec_.speculation_threshold + backup);
  }
  return x;
}

double YoungDalyInterval(double checkpoint_cost_s, double system_mtbf_s) {
  DMLSCALE_CHECK_GE(checkpoint_cost_s, 0.0);
  DMLSCALE_CHECK_GE(system_mtbf_s, 0.0);
  return std::sqrt(2.0 * checkpoint_cost_s * system_mtbf_s);
}

double Availability(const FaultSpec& spec) {
  if (!spec.CrashesEnabled()) return 1.0;
  return spec.mtbf_seconds / (spec.mtbf_seconds + spec.mttr_seconds);
}

CheckpointPlan ResolveCheckpointPlan(const FaultSpec& spec, int n,
                                     double work_seconds) {
  DMLSCALE_CHECK_GE(n, 1);
  DMLSCALE_CHECK(work_seconds > 0.0);
  double interval = spec.checkpoint_interval_s;
  if (interval <= 0.0 && spec.CrashesEnabled() &&
      spec.checkpoint_cost_s > 0.0 &&
      spec.recovery != RecoveryStrategy::kReplicaTakeover) {
    interval = YoungDalyInterval(spec.checkpoint_cost_s,
                                 spec.mtbf_seconds / static_cast<double>(n));
  }
  CheckpointPlan plan;
  if (interval > 0.0) {
    double segments = std::round(work_seconds / interval);
    // Cap the schedule so a tiny interval cannot explode the event count.
    plan.segments = static_cast<int>(std::clamp(segments, 1.0, 10000.0));
  }
  plan.interval_s = work_seconds / static_cast<double>(plan.segments);
  return plan;
}

double ExpectedMaxSlowdown(const FaultSpec& spec, int n) {
  if (spec.straggler_sigma <= 0.0 || n < 1) return 1.0;
  const double sigma = spec.straggler_sigma;
  const bool speculative =
      spec.recovery == RecoveryStrategy::kSpeculativeReexec;
  const double theta = spec.speculation_threshold;
  auto cdf = [&](double t) {
    if (t <= 0.0) return 0.0;
    double base = Phi(std::log(t) / sigma);
    if (!speculative || t <= theta) return base;
    // Past the threshold the original AND the backup must both be late:
    // P(min(X, theta + X') > t) = (1 - F(t)) * (1 - F(t - theta)).
    double backup = Phi(std::log(t - theta) / sigma);
    return 1.0 - (1.0 - base) * (1.0 - backup);
  };
  // E[max] = integral of 1 - F(t)^n. At t_max, n * (1 - F) < ~1e-13 even for
  // n = 1e6 (Phi(9) tail), so the truncation error is negligible.
  const double t_max = (speculative ? theta : 0.0) + std::exp(9.0 * sigma);
  const int steps = 20000;
  const double dt = t_max / steps;
  double sum = 0.0;
  for (int i = 0; i <= steps; ++i) {
    double t = dt * i;
    double f = 1.0 - std::pow(cdf(t), static_cast<double>(n));
    sum += (i == 0 || i == steps) ? 0.5 * f : f;
  }
  return sum * dt;
}

std::vector<double> MaxSlowdownTable(const FaultSpec& spec, int max_nodes) {
  std::vector<double> table(static_cast<size_t>(std::max(max_nodes, 0)) + 1,
                            1.0);
  for (int n = 1; n <= max_nodes; ++n) {
    table[static_cast<size_t>(n)] = ExpectedMaxSlowdown(spec, n);
  }
  return table;
}

Result<double> ExpectedCompletionSeconds(const FaultSpec& spec, int n,
                                         double work_seconds,
                                         double max_slowdown) {
  DMLSCALE_RETURN_NOT_OK(spec.Validate());
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (!(work_seconds > 0.0)) {
    return Status::InvalidArgument("work_seconds must be > 0");
  }
  const CheckpointPlan plan = ResolveCheckpointPlan(spec, n, work_seconds);
  const double segment =
      plan.interval_s * max_slowdown + spec.checkpoint_cost_s;
  const double base = static_cast<double>(plan.segments) * segment;
  if (!spec.CrashesEnabled()) return base;

  // System crash-notification rate: n independent up/down renewal processes,
  // each cycling (uptime ~ mtbf, downtime mttr).
  const double lambda =
      static_cast<double>(n) / (spec.mtbf_seconds + spec.mttr_seconds);
  if (spec.recovery == RecoveryStrategy::kReplicaTakeover) {
    // Every crash stalls the job `takeover` seconds without losing work:
    // T = B + lambda * T * D.
    const double drag = lambda * spec.takeover_seconds;
    if (drag >= 1.0) {
      return Status::InvalidArgument(
          "replica takeover cannot keep up: crash rate x takeover_seconds = " +
          std::to_string(drag) + " >= 1 (shrink takeover_seconds or the "
          "cluster, or raise mtbf_seconds)");
    }
    return base / (1.0 - drag);
  }
  // Daly's expected completion: each segment retries on failure (losing its
  // elapsed work), failures during the R-second recovery restart it.
  const double mtbf_sys = 1.0 / lambda;
  return static_cast<double>(plan.segments) * mtbf_sys *
         std::exp(spec.mttr_seconds / mtbf_sys) *
         (std::exp(segment / mtbf_sys) - 1.0);
}

}  // namespace dmlscale::core
