#ifndef DMLSCALE_API_ANALYSIS_H_
#define DMLSCALE_API_ANALYSIS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include <vector>

#include "api/scenario.h"
#include "common/memo_cache.h"
#include "common/status.h"
#include "core/calibration.h"
#include "core/speedup.h"
#include "serve/cluster.h"
#include "serve/serving_sim.h"
#include "sim/overhead.h"

namespace dmlscale::api {

/// What Analysis::Run should do beyond the speedup curve. Defaults answer
/// the paper's core question (the curve and its optimum) only; planner
/// questions and the discrete-event cross-check are opt-in.
struct AnalysisOptions {
  /// Node counts to evaluate: [1, max_nodes]. 0 = the scenario cluster's
  /// max_nodes. At most kMaxNodesLimit.
  int max_nodes = 0;
  /// Reference node count for speedup (1 = strong scaling from one node).
  int reference_n = 1;

  /// > 0: answer "how many machines to run `target_speedup`-times faster
  /// than on `current_nodes`?" (the paper's Q1). This and the other two
  /// planner targets must be finite; Run rejects NaN and +-inf.
  double target_speedup = 0.0;
  /// > 0: answer "the workload grew `workload_growth`-times — how many
  /// machines keep the `current_nodes` run time?" (the paper's Q2). Growth
  /// scales the computation term linearly and leaves the communication
  /// payload unchanged (more data, same model size).
  double workload_growth = 0.0;
  int current_nodes = 1;

  /// > 0: answer "how many machines finish an iteration within this many
  /// seconds ONCE FAILURES ARE ACCOUNTED FOR?" (the failure-aware Q3,
  /// priced with core::ExpectedCompletionSeconds under the scenario's
  /// fault spec — which may be the disabled spec, reducing the question to
  /// plain target time).
  double fault_target_seconds = 0.0;

  /// Cross-check the analytic curve against the discrete-event simulator.
  /// For serving-aware scenarios this also drives the serving DES
  /// (serve::SimulateServing) and reports the analytic-vs-simulated mean
  /// latency deviation.
  bool simulate = false;
  /// Measured requests per serving DES run, after `serving_sim_warmup`
  /// discarded ones (only read when simulate is set on a serving-aware
  /// scenario).
  int64_t serving_sim_requests = 20000;
  int64_t serving_sim_warmup = 2000;
  /// Framework overheads injected into the simulation; None() makes the
  /// simulated curve coincide with the analytic one.
  sim::OverheadModel overhead;
  /// Supersteps averaged per simulated point.
  int sim_supersteps = 3;
  /// Base seed of the simulation. Every node count draws from its own
  /// generator seeded by DeriveSeed(sim_seed, n), so the simulated point at
  /// `n` is a pure function of (scenario, options, n) — independent of
  /// evaluation order, of max_nodes, and of `threads` below.
  uint64_t sim_seed = 42;

  /// Worker threads for the per-n simulation fan-out, in [1, kMaxThreads]
  /// (1 = inline).
  /// Thanks to the per-n seeding the report is byte-identical for every
  /// thread count. Analysis::Run spawns its own short-lived pool, so sweep
  /// runners that already parallelize across cells should leave this at 1.
  int threads = 1;

  /// Optional shared memoization cache for the scenario's ComputeSeconds /
  /// CommSeconds evaluations (not owned; nullptr = no caching). Run prices
  /// each n in [1, max_nodes] once into a table at its start, so a run
  /// makes exactly one lookup per term and node count; every repeat comes
  /// from another run sharing the cache. Keys embed Scenario::CacheKey() —
  /// a digest of the full model including hardware, parameters, and network
  /// (topology/queue) selection — so two cells share cached times only
  /// when they price identically; unnamed scenarios are still rejected to
  /// keep cache contents attributable, and so are Compute(fn) scenarios,
  /// whose function the key cannot digest.
  MemoCache* eval_cache = nullptr;

  /// Measured timing samples to compare the scenario against (not owned;
  /// nullptr = no comparison) — typically `CalibratedScenario::samples`.
  /// Adds the measured-seconds column to PrintReport and the
  /// model-vs-measured MAPE to the report, for both the a-priori and the
  /// calibrated scenario (the drop between the two is the value of the
  /// feedback loop).
  const std::vector<core::TimingSample>* measured_samples = nullptr;
};

/// One capacity-planning answer; `achievable` is false when no node count
/// within max_nodes reaches the target (`note` carries the reason).
struct PlannerAnswer {
  bool achievable = false;
  int nodes = 0;
  std::string note;
};

/// A rate-valued planning answer (the serving "how much load fits"
/// direction of Q3); `achievable` is false when even a near-zero rate
/// misses the latency target (`note` carries the reason).
struct ServingRateAnswer {
  bool achievable = false;
  double qps = 0.0;
  std::string note;
};

/// Everything the paper asks of one scenario, in one struct.
struct AnalysisReport {
  std::string scenario_name;

  /// The communication model's decorated label ("ring-allreduce@fat-tree
  /// (pod=4;os=4)/mm1") and whether it was priced on a non-ideal network.
  /// When `contended` is set, the simulated curve (if requested) replaces
  /// the analytic communication term with the per-link discrete-event
  /// simulator, so model_vs_sim_mape doubles as the analytic-vs-DES
  /// contention cross-check.
  std::string comm_label;
  bool contended = false;

  /// Analytic speedup curve over [1, max_nodes].
  core::SpeedupCurve curve;
  /// Iteration time at the reference node count, seconds.
  double reference_seconds = 0.0;
  /// argmax of the curve (Section III's optimal cluster size).
  int optimal_nodes = 1;
  /// First interior local peak (Fig. 2's "nine workers" read-off).
  int first_local_peak = 1;
  double peak_speedup = 1.0;
  bool scalable = false;

  /// Present when the corresponding option was requested.
  std::optional<PlannerAnswer> speedup_answer;
  std::optional<PlannerAnswer> growth_answer;

  /// Present when options.simulate was set.
  std::optional<core::SpeedupCurve> simulated;
  /// MAPE between analytic and simulated speedups, percent.
  std::optional<double> model_vs_sim_mape;

  /// The scenario's calibration coefficients (both 1.0 until a scenario
  /// has been through api::Calibrate / Builder::WithCalibration).
  double compute_coefficient = 1.0;
  double comm_coefficient = 1.0;
  bool calibrated = false;

  /// Present when options.measured_samples was set: the samples echoed
  /// back (for table rendering) and the MAPE of the scenario's predicted
  /// times against them, percent.
  std::vector<core::TimingSample> measured;
  std::optional<double> model_vs_measured_mape;

  /// Present when the scenario carries an enabled failure model
  /// (Scenario::fault_aware()); fault-free reports stay byte-identical.
  /// Steady-state fraction of each node that is up, mtbf/(mtbf+mttr).
  std::optional<double> availability;
  /// Expected completion under failures divided by the fault-free time, at
  /// the fault-free optimal_nodes (>= 1; how much the failure processes
  /// stretch the optimum the paper's analysis would pick).
  std::optional<double> expected_slowdown;
  /// argmin over the curve's node counts of the EXPECTED completion time —
  /// failures shift the optimum because the system crash rate grows with n.
  /// Absent when no evaluated count is feasible (e.g. saturated replica).
  std::optional<int> fault_optimal_nodes;
  /// Young/Daly sqrt(2*C*MTBF_sys) at options.current_nodes, when the spec
  /// has both a crash process and a checkpoint cost.
  std::optional<double> optimal_checkpoint_interval_s;
  /// Present when options.fault_target_seconds was requested (Q3).
  std::optional<PlannerAnswer> fault_target_answer;

  /// Present when the scenario carries a serving cluster
  /// (Scenario::serving_aware()); serving-free reports stay byte-identical.
  /// The closed-form pipeline's full answer (Erlang-C over the replica
  /// pool, batching and cache blended in).
  std::optional<serve::ServingEstimate> serving;
  /// The spec's planning quantile, echoed for rendering ("p99").
  std::optional<double> serving_quantile;
  /// Present when the spec asked the replica-planning question
  /// (target_qps > 0 with a latency SLO): the serving Q3, answered
  /// analytically; `nodes` carries REPLICAS.
  std::optional<PlannerAnswer> serving_replicas_answer;
  /// Present when the spec carries a latency SLO (target_latency_s > 0):
  /// the highest offered rate the declared replica count sustains within
  /// it — the other direction of the serving Q3.
  std::optional<ServingRateAnswer> serving_max_qps_answer;
  /// Present when options.simulate was set on a serving-aware scenario:
  /// the serving DES run and the percent deviation of the analytic mean
  /// latency from the simulated one.
  std::optional<serve::ServingSimStats> serving_sim;
  std::optional<double> serving_model_vs_sim_pct;
};

/// The unified front door: speedup analysis, capacity planning, and the
/// discrete-event cross-check behind one call.
class Analysis {
 public:
  [[nodiscard]] static Result<AnalysisReport> Run(const Scenario& scenario,
                                    const AnalysisOptions& options = {});
};

/// Renders the report in the bench drivers' table style: the speedup table
/// (with the simulated column when present), the optimum line, and any
/// planner answers.
void PrintReport(const AnalysisReport& report, std::ostream& os);

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_ANALYSIS_H_
