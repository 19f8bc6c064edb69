#ifndef DMLSCALE_API_SCENARIO_H_
#define DMLSCALE_API_SCENARIO_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/params.h"
#include "common/status.h"
#include "core/faults.h"
#include "core/hardware.h"
#include "core/speedup.h"
#include "core/superstep.h"
#include "serve/cluster.h"

namespace dmlscale::api {

/// The largest max_nodes that Scenario::Builder::Build and Analysis::Run
/// accept. Analysis::Run sizes its curve and time table by max_nodes, so an
/// unbounded value would end in bad_alloc or hours of evaluation.
inline constexpr int kMaxNodesLimit = 1 << 20;

/// A fully described scalability scenario: hardware + one BSP superstep
/// (computation and communication models resolved through the registries)
/// repeated `supersteps` times per iteration. This is the library's
/// declarative entry point — every paper figure is one of these:
///
///   auto scenario = api::Scenario::Builder()
///                       .Name("fig1")
///                       .Hardware(api::presets::GenericGigaflopNode())
///                       .Link(api::presets::GigabitEthernet())
///                       .MaxNodes(30)
///                       .Compute("perfectly-parallel",
///                                {{"total_flops", 196e9}})
///                       .Comm("linear", {{"bits", 1e9}})
///                       .Build();
///
/// `Scenario` is itself an `AlgorithmModel`, so it plugs directly into
/// `SpeedupAnalyzer`, `CapacityPlanner`, and `Analysis::Run`.
///
/// Scenarios are cheap to copy (the resolved superstep is shared,
/// immutable state), which is what lets `api::Calibrate` hand back a
/// calibrated twin of its input.
///
/// A scenario optionally carries CALIBRATION COEFFICIENTS (Section VI's
/// feedback loop): `Seconds(n)` is
///   supersteps * (compute_coefficient * tcp(n) + comm_coefficient * tcm(n)).
/// Both default to 1 (the a-priori model); `api::Calibrate` fits them to
/// measured `core::TimingSample`s, and `Builder::WithCalibration` bakes
/// known coefficients into a rebuilt scenario (e.g. a sweep axis).
class Scenario final : public core::AlgorithmModel {
 public:
  class Builder;

  /// Iteration time on `n` nodes: supersteps * (tcp(n) + tcm(n)), each term
  /// scaled by its calibration coefficient.
  double Seconds(int n) const override;
  std::string name() const override { return name_; }

  /// The computation term alone (all supersteps, coefficient applied).
  double ComputeSeconds(int n) const;
  /// The communication term alone (all supersteps, coefficient applied).
  double CommSeconds(int n) const;

  /// Calibration coefficients (1.0 until calibrated). A compute coefficient
  /// of 1.25 means the hardware reaches only 80% of the assumed effective
  /// FLOPS; a comm coefficient of 0.8 means the collective beats the
  /// closed-form estimate by 20% (e.g. pipelining the paper's model omits).
  double compute_coefficient() const { return compute_coefficient_; }
  double comm_coefficient() const { return comm_coefficient_; }
  /// True when either coefficient differs from the a-priori 1.0.
  bool calibrated() const {
    return compute_coefficient_ != 1.0 || comm_coefficient_ != 1.0;
  }

  /// A copy of this scenario with the given coefficients MULTIPLIED onto
  /// the existing ones and `suffix` appended to the name. Coefficients must
  /// be finite and > 0 (CHECK). This is how `api::Calibrate` constructs its
  /// result; prefer that entry point when fitting from samples.
  Scenario Calibrated(double compute_coefficient, double comm_coefficient,
                      const std::string& suffix = "+calibrated") const;

  const core::ClusterSpec& cluster() const { return cluster_; }
  int supersteps() const { return supersteps_; }
  const std::string& compute_name() const { return compute_name_; }
  const std::string& comm_name() const { return comm_name_; }
  /// The parameters the communication model was built from ("bits" is what
  /// the simulator's serialization overhead needs).
  const ModelParams& comm_params() const { return comm_params_; }

  /// The resolved communication model (network spec, traffic patterns).
  const core::CommunicationModel& comm() const { return step_->comm(); }
  /// The communication model's decorated label, e.g.
  /// "ring-allreduce@fat-tree(pod=4;os=4)/mm1"; equals comm_name's model
  /// name on the paper's ideal network.
  std::string comm_label() const { return step_->comm().label(); }
  /// True when the scenario prices communication on a non-ideal network —
  /// per-link contention and queueing apply.
  bool contended() const { return !step_->comm().network().Ideal(); }

  /// The resolved failure model (the disabled spec unless Builder::Faults
  /// was given).
  const core::FaultSpec& faults() const { return faults_; }
  /// The parameter bag faults() was resolved from (empty when fault-free).
  const ModelParams& fault_params() const { return fault_params_; }
  /// True when the scenario carries an enabled failure model — analysis
  /// then prices expected slowdown and availability on top of the
  /// fault-free curve.
  bool fault_aware() const { return faults_.Enabled(); }

  /// The resolved serving cluster (the default spec unless
  /// Builder::Serving was given).
  const serve::ServingSpec& serving() const { return serving_; }
  /// The parameter bag serving() was resolved from (empty when
  /// serving-free).
  const ModelParams& serving_params() const { return serving_params_; }
  /// True when the scenario carries a serving cluster — analysis then
  /// answers the inference-side questions (latency quantiles, Q3 replica
  /// planning) next to the training-side curve.
  bool serving_aware() const { return serving_aware_; }

  /// True when the computation model came from Builder::Compute(fn).
  bool callable_compute() const { return callable_compute_; }

  /// A digest uniquely identifying the scenario's MODEL — name, hardware,
  /// model names, every parameter (numeric and string, so topology/queue
  /// selections count), supersteps, coefficients. Memoization keys MUST use
  /// this instead of name(): two sweep cells differing only in
  /// `oversubscription` share a name but not a communication time. A
  /// callable compute model enters only by its label, so such scenarios
  /// must not share a cache (Analysis::Run refuses them one).
  std::string CacheKey() const;

  /// Convenience: the strong-scaling speedup curve up to `max_nodes`
  /// (0 = the cluster's max_nodes).
  [[nodiscard]] Result<core::SpeedupCurve> Speedup(int max_nodes = 0,
                                     int reference_n = 1) const;

 private:
  Scenario() = default;

  std::string name_;
  core::ClusterSpec cluster_;
  int supersteps_ = 1;
  /// Shared and immutable after Build(), so copies are cheap and safe.
  std::shared_ptr<const core::Superstep> step_;
  std::string compute_name_;
  std::string comm_name_;
  ModelParams compute_params_;
  bool callable_compute_ = false;
  ModelParams comm_params_;
  core::FaultSpec faults_;
  ModelParams fault_params_;
  serve::ServingSpec serving_;
  ModelParams serving_params_;
  bool serving_aware_ = false;
  double compute_coefficient_ = 1.0;
  double comm_coefficient_ = 1.0;
};

/// Fluent builder; every setter returns *this so scenarios read as one
/// declaration. `Build()` validates eagerly (hardware specs, registry
/// lookups, parameter bags) and returns the first error it finds.
class Scenario::Builder {
 public:
  Builder& Name(std::string name);

  /// The node type; resets nothing else.
  Builder& Hardware(core::NodeSpec node);
  /// A full cluster: node + link + max_nodes + shared_memory in one call.
  Builder& Hardware(const core::ClusterSpec& cluster);
  Builder& Link(core::LinkSpec link);
  /// In [1, kMaxNodesLimit]; Build() rejects anything else.
  Builder& MaxNodes(int max_nodes);
  /// Marks communication as free (the paper's DL980 runs, Section V-B);
  /// when no Comm() is given, a shared-memory scenario defaults to the
  /// "shared-memory" model.
  Builder& SharedMemory(bool shared = true);

  /// Selects a registered computation model by name.
  Builder& Compute(std::string model, ModelParams params = {});
  /// Escape hatch for models a scalar parameter bag cannot express: the
  /// per-superstep bottleneck work in FLOPs as a function of n (wrapped in
  /// core::BottleneckCompute, e.g. Section IV-B's max_i(E_i) * c(S)).
  /// Analysis::Run returns InvalidArgument for a share that is negative or
  /// not finite at any priced n.
  Builder& Compute(std::function<double(int)> max_share_flops,
                   std::string label = "custom-compute");

  /// Selects a registered communication model by name.
  Builder& Comm(std::string model, ModelParams params = {});

  /// Attaches a failure model, resolved through api::ResolveFaultSpec
  /// (keys: mtbf, mttr, straggler, recovery, checkpoint_interval, ...).
  /// Build() validates the bag eagerly; the empty bag keeps the scenario
  /// fault-free.
  Builder& Faults(ModelParams params);

  /// Attaches an inference-serving cluster, resolved through
  /// api::ResolveServingSpec (keys: arrivals, qps, batch_max, batch_delay,
  /// cache, hit_rate, replicas, service_per_item, ...). The scenario's
  /// link prices the model-parallel rejoin collective. Build() validates
  /// the bag eagerly; the empty bag keeps the scenario serving-free.
  Builder& Serving(ModelParams params);

  /// Supersteps per iteration (>= 1); the iteration time is their sum.
  Builder& Supersteps(int count);

  /// Bakes known calibration coefficients into the scenario: compute /
  /// comm terms are scaled by them (see Scenario::compute_coefficient()).
  /// Use `api::Calibrate` to FIT coefficients from measured samples; this
  /// setter is for re-declaring a previously fitted scenario, e.g. on a
  /// sweep axis. Build() rejects non-finite or non-positive values.
  Builder& WithCalibration(double compute_coefficient,
                           double comm_coefficient);

  /// Validates and assembles the scenario.
  [[nodiscard]] Result<Scenario> Build() const;

 private:
  std::string name_ = "scenario";
  std::optional<core::NodeSpec> node_;
  std::optional<core::LinkSpec> link_;
  int max_nodes_ = 64;
  bool shared_memory_ = false;
  int supersteps_ = 1;

  bool has_compute_ = false;
  std::string compute_model_;
  ModelParams compute_params_;
  std::function<double(int)> compute_fn_;
  std::string compute_label_;

  bool has_comm_ = false;
  std::string comm_model_;
  ModelParams comm_params_;

  ModelParams fault_params_;
  ModelParams serving_params_;

  double compute_coefficient_ = 1.0;
  double comm_coefficient_ = 1.0;
};

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_SCENARIO_H_
