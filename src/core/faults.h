#ifndef DMLSCALE_CORE_FAULTS_H_
#define DMLSCALE_CORE_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace dmlscale::core {

/// What the system does when a node dies (or a straggler stalls a barrier).
enum class RecoveryStrategy {
  /// Roll every worker back to the last checkpoint and redo the segment;
  /// pays `checkpoint_cost_s` per checkpoint and `mttr_seconds` per crash.
  kCheckpointRestart,
  /// A hot replica takes over after `takeover_seconds`; no work is lost.
  kReplicaTakeover,
  /// Stragglers past `speculation_threshold`x the median are re-executed
  /// speculatively (crashes still roll back to the last checkpoint).
  kSpeculativeReexec,
};

const char* ToString(RecoveryStrategy strategy);

/// A declarative failure model for a cluster: per-node exponential crash
/// processes (the memoryless uptimes Daly's completion form assumes) and
/// straggler slowdowns, plus the recovery policy.
/// The default-constructed spec is the perfect cluster every earlier PR
/// assumed (`Enabled() == false`), so fault-awareness is strictly opt-in.
struct FaultSpec {
  /// Mean time between failures of ONE node, seconds. <= 0 disables crashes.
  double mtbf_seconds = 0.0;
  /// Downtime per crash (repair / reload, Daly's R), seconds. Must be > 0
  /// when crashes are enabled — a zero-cost failure is not a failure.
  double mttr_seconds = 0.0;

  /// Log-normal sigma of the per-(node, segment) slowdown multiplier
  /// (median 1); 0 = no stragglers.
  double straggler_sigma = 0.0;

  RecoveryStrategy recovery = RecoveryStrategy::kCheckpointRestart;
  /// Seconds of work between checkpoints; 0 = the Young/Daly optimum
  /// sqrt(2 * checkpoint_cost_s * system MTBF).
  double checkpoint_interval_s = 0.0;
  /// Seconds to write one checkpoint.
  double checkpoint_cost_s = 0.0;
  /// Replica-takeover delay, seconds (kReplicaTakeover only).
  double takeover_seconds = 0.0;
  /// Relaunch a straggler when its slowdown exceeds this multiple
  /// (kSpeculativeReexec only; > 1).
  double speculation_threshold = 2.0;

  bool CrashesEnabled() const { return mtbf_seconds > 0.0; }
  bool Enabled() const { return CrashesEnabled() || straggler_sigma > 0.0; }

  [[nodiscard]] Status Validate() const;
};

/// Deterministic sampling for a FaultSpec. Every node owns one derived
/// `Pcg32` crash stream, seeded via `DeriveSeed(seed, .)`, so draws depend
/// only on (seed, node, draw index) — never on which shard or thread
/// consumed them. This is what keeps fault-injected windowed runs
/// bit-identical across shard counts.
class FaultModel {
 public:
  FaultModel(FaultSpec spec, uint64_t seed);

  const FaultSpec& spec() const { return spec_; }

  /// The node's derived crash stream. Stable under node count: stream
  /// identity is a pure function of (seed, node).
  Pcg32 CrashStream(int node) const;

  /// One exponential time-to-failure draw with the configured MTBF as the
  /// mean, seconds.
  double NextUptime(Pcg32* rng) const;
  /// One straggler slowdown draw; under kSpeculativeReexec a draw past the
  /// threshold is capped by a speculative re-execution:
  /// min(x, threshold + x') with x' an independent draw.
  double NextSlowdown(Pcg32* rng) const;

 private:
  FaultSpec spec_;
  uint64_t seed_;
};

/// --- Analytic closed forms (the model side of the analytic-vs-DES
/// cross-check; see sim/fault_scenarios.h for the DES side). ---

/// Young/Daly optimal checkpoint interval sqrt(2 * C * M_sys), where C is
/// the checkpoint cost and M_sys the SYSTEM MTBF (per-node MTBF / n).
double YoungDalyInterval(double checkpoint_cost_s, double system_mtbf_s);

/// Steady-state availability of one node: MTBF / (MTBF + MTTR); 1 when
/// crashes are disabled.
double Availability(const FaultSpec& spec);

/// How the protected work is cut into checkpoint segments for `n` nodes:
/// the explicit interval when configured, else the Young/Daly optimum, else
/// one segment. Shared by the analytic forms and the DES so both price the
/// same checkpoint schedule.
struct CheckpointPlan {
  int segments = 1;
  double interval_s = 0.0;  // work_seconds / segments
};
CheckpointPlan ResolveCheckpointPlan(const FaultSpec& spec, int n,
                                     double work_seconds);

/// E[max of n iid slowdown draws] — the expected barrier stretch of a BSP
/// segment across n jittered workers, by deterministic numeric integration
/// of 1 - F(t)^n (speculation-capped F under kSpeculativeReexec). 1 when
/// straggler_sigma == 0.
double ExpectedMaxSlowdown(const FaultSpec& spec, int n);

/// ExpectedMaxSlowdown(spec, n) at index n for every n in [1, max_nodes]
/// (index 0 holds 1), each integrated once. A caller that prices one spec
/// at many node counts fills one per job and drops it with the job.
std::vector<double> MaxSlowdownTable(const FaultSpec& spec, int max_nodes);

/// Expected wall-clock seconds to complete `work_seconds` of fault-free
/// per-node BSP work on `n` nodes under `spec`:
///
///   no crashes            segments * (tau * J + C)
///   checkpoint / spec     Daly: segments * M * e^(R/M) * (e^(seg/M) - 1)
///   replica takeover      B / (1 - lambda * D)   (fixed point; InvalidArgument
///                         when takeovers cannot keep up, lambda * D >= 1)
///
/// with J = `max_slowdown`, which must be ExpectedMaxSlowdown(spec, n)
/// (a MaxSlowdownTable entry when one spec is priced at many n),
/// seg = tau * J + C, M = 1/lambda the system MTBF
/// (lambda = n / (mtbf + mttr)), R = mttr, B the crash-free total.
[[nodiscard]] Result<double> ExpectedCompletionSeconds(const FaultSpec& spec,
                                                       int n,
                                                       double work_seconds,
                                                       double max_slowdown);

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_FAULTS_H_
