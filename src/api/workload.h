#ifndef DMLSCALE_API_WORKLOAD_H_
#define DMLSCALE_API_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/params.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "common/status.h"
#include "core/calibration.h"

namespace dmlscale::api {

/// Anything that can produce `(nodes, seconds)` timing samples for the
/// calibration feedback loop (Section VI): measure a handful of node
/// counts, fit the scenario's scale coefficients to them (`api::Calibrate`),
/// and predict the rest of the curve with the calibrated model.
///
/// Two families implement the interface:
///   - MODELED workloads evaluate a closed form (today's `Scenario`);
///     they exist so calibration pipelines can be exercised and tested
///     against known coefficients.
///   - MEASURED workloads actually execute the algorithm — the GEMM-backed
///     `nn::Trainer`, partition-parallel `bp::RunParallelBp` — with the
///     node count mapped onto in-process parallelism (gradient shards /
///     partition workers).
///
/// Measured workloads price with a deterministic WORK-CLOCK: they run the
/// real computation, read the execution counters it leaves behind (the
/// trainer's bottleneck-shard examples and replica reductions, the BP
/// run's per-worker edge updates and cut edges), and price those counters
/// on the scenario's hardware spec. The sample therefore reflects what was
/// executed — shard imbalance, short final batches, bias terms, measured
/// convergence — but is a pure function of (options, nodes): byte-identical
/// across runs and across `threads` settings, which is what lets
/// calibration live inside tests, sweeps, and TSan CI jobs. No wall-clock
/// reading reaches a sample.
///
/// `TimingSample::seconds` is normalized PER SUPERSTEP — one mini-batch
/// optimizer step, one BP superstep — matching `core::AlgorithmModel`'s
/// "duration of one unit of progress" contract, so a scenario declared with
/// the same per-superstep terms fits with coefficients near 1.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  /// True when Measure executes real computation rather than evaluating a
  /// closed-form model.
  virtual bool measured() const = 0;

  /// One timing sample at `nodes` >= 1. Pure function of (workload
  /// configuration, nodes) — independent of call order and thread count.
  [[nodiscard]] virtual Result<core::TimingSample> Measure(int nodes) = 0;

  /// One sample per entry of `nodes`, in order. Fails on the first
  /// measurement error.
  [[nodiscard]] Result<std::vector<core::TimingSample>> MeasureSchedule(
      const std::vector<int>& nodes);
};

// ---------------------------------------------------------------------------
// Modeled family.
// ---------------------------------------------------------------------------

/// Evaluates a scenario's closed form — the "workload" every analysis so
/// far has used implicitly. Calibrating scenario A against
/// `ModeledWorkload(B)` recovers the coefficient pair that maps A onto B
/// exactly (the round-trip the tests pin down).
class ModeledWorkload final : public Workload {
 public:
  explicit ModeledWorkload(Scenario scenario);

  std::string name() const override;
  bool measured() const override { return false; }
  [[nodiscard]] Result<core::TimingSample> Measure(int nodes) override;

 private:
  Scenario scenario_;
};

// ---------------------------------------------------------------------------
// Measured family: the GEMM-backed trainer.
// ---------------------------------------------------------------------------

/// Configuration of NnTrainerWorkload. The defaults execute in well under a
/// second per node count in Release; scale `layer_sizes` / `examples` up on
/// real hardware.
struct NnTrainerWorkloadOptions {
  /// Fully connected stack, e.g. {784, 250, 200, 150, 100, 50, 10} (the
  /// Fig. 2 MNIST tower at 1/10 width). At least {inputs, outputs}.
  std::vector<int64_t> layer_sizes;
  /// Synthetic classification examples per Measure() call.
  int64_t examples = 256;
  /// Mini-batch size; each batch is split into `nodes` gradient shards.
  int64_t batch_size = 64;
  int epochs = 1;
  /// Seeds dataset, weight init, and shuffling (per-purpose streams, so
  /// every Measure() call sees identical data regardless of order).
  uint64_t seed = 42;
  /// Worker threads executing gradient shards, in [1, kMaxThreads].
  /// Wall-clock only: the trainer is bit-identical for every thread count
  /// and the work-clock reads counters, never the wall. TSan jobs run with
  /// threads > 1.
  int threads = 1;

  [[nodiscard]] Status Validate() const;
};

/// The Fig. 2 MNIST tower (784-2500-2000-1500-1000-500-10, Table I) with
/// hidden widths scaled by `width_scale` in (0, 1] (minimum hidden width
/// 4; inputs/outputs keep the dataset shape). Shared by the "nn-trainer"
/// registry factory and the calibration bench driver so the two can never
/// diverge on the architecture they claim to share.
std::vector<int64_t> Fig2TowerLayerSizes(double width_scale);

/// Executes real mini-batch SGD (`nn::TrainMiniBatches`, the GEMM-backed
/// trainer) with the node count standing in for the gradient-shard count:
/// Measure(n) splits every mini-batch into min(n, batch length) shards,
/// exactly the synchronous data-parallel execution the Section IV-A model
/// describes. The work-clock prices, per optimizer step:
///   compute: 6 * MA * bottleneck_examples + 2W * (reductions + steps)
///            multiply-add-convention ops on the scenario node's effective
///            FLOPS (forward + backprop + gradient = 3 forward-equivalents
///            at 2 ops per multiply-add, Section V-A; optimizer step and
///            ordered replica reduction are 2W each);
///   comm:    2 * 64W bits per replica reduction (parameter broadcast +
///            gradient gather through the master) on the scenario link —
///            zero for shared-memory scenarios.
/// where MA / W are the EXECUTED per-example multiply-adds / weight count
/// (biases included — one of the things the closed form idealizes away) and
/// the counters come from `nn::TrainingHistory`.
class NnTrainerWorkload final : public Workload {
 public:
  /// Derives hardware pricing (node FLOPS, link bandwidth, shared-memory
  /// flag) from `scenario`; validates `options`.
  [[nodiscard]] static Result<std::unique_ptr<NnTrainerWorkload>> Create(
      const Scenario& scenario, NnTrainerWorkloadOptions options);

  std::string name() const override { return "nn-trainer"; }
  bool measured() const override { return true; }
  [[nodiscard]] Result<core::TimingSample> Measure(int nodes) override;

  /// Mean epoch loss of the last Measure() call's training run — evidence
  /// the workload really trains (tests assert it decreases).
  const std::vector<double>& last_epoch_loss() const {
    return last_epoch_loss_;
  }

 private:
  NnTrainerWorkload(core::ClusterSpec cluster,
                    NnTrainerWorkloadOptions options);

  core::ClusterSpec cluster_;
  NnTrainerWorkloadOptions options_;
  std::vector<double> last_epoch_loss_;
};

// ---------------------------------------------------------------------------
// Measured family: partition-parallel loopy BP.
// ---------------------------------------------------------------------------

/// Configuration of BpSweepWorkload: a random pairwise MRF on a 2D grid
/// (the classic loopy-BP benchmark topology) solved by partition-parallel
/// synchronous BP.
struct BpSweepWorkloadOptions {
  int64_t grid_rows = 24;
  int64_t grid_cols = 24;
  int states = 2;
  /// Pairwise coupling strength; below ~1 keeps loopy BP convergent.
  double coupling = 0.3;
  int max_iterations = 30;
  double tolerance = 1e-6;
  /// Seeds the MRF potentials and the per-node-count random partition.
  uint64_t seed = 42;
  /// Real threads executing the logical workers, in [1, kMaxThreads]
  /// (wall-clock only; the BP run is bit-identical to sequential for any
  /// thread count).
  int threads = 1;

  [[nodiscard]] Status Validate() const;
};

/// Executes `bp::RunParallelBp` on a grid MRF with the node count as the
/// partition's worker count. The work-clock prices, per superstep:
///   compute: max_i(edge updates of worker i) * c(S) ops on the node's
///            effective FLOPS — the measured bottleneck the Section IV-B
///            Monte-Carlo estimator predicts;
///   comm:    cut_directed_edges * S * 64 bits (the messages a distributed
///            deployment would put on the wire) on the scenario link —
///            zero for shared-memory scenarios (Section V-B).
/// Convergence is measured too: the sample divides by the iterations the
/// run actually took, not by max_iterations.
class BpSweepWorkload final : public Workload {
 public:
  [[nodiscard]] static Result<std::unique_ptr<BpSweepWorkload>> Create(
      const Scenario& scenario, BpSweepWorkloadOptions options);

  ~BpSweepWorkload() override;

  std::string name() const override { return "bp-sweep"; }
  bool measured() const override { return true; }
  [[nodiscard]] Result<core::TimingSample> Measure(int nodes) override;

  /// Supersteps of the last Measure() call (0 before the first call).
  int last_iterations() const { return last_iterations_; }
  /// True when the last run converged within max_iterations.
  bool last_converged() const { return last_converged_; }

 private:
  struct State;  // owns the graph + MRF (the MRF points into the graph)

  BpSweepWorkload(core::ClusterSpec cluster, BpSweepWorkloadOptions options,
                  std::unique_ptr<State> state);

  core::ClusterSpec cluster_;
  BpSweepWorkloadOptions options_;
  std::unique_ptr<State> state_;
  int last_iterations_ = 0;
  bool last_converged_ = false;
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// String-keyed workload factories, mirroring the compute/comm model
/// registries: a factory receives the user's `ModelParams` plus the
/// Scenario the workload will be calibrated against (hardware pricing,
/// shared-memory flag) and returns the constructed workload. Misses list
/// the menu; `Workloads().Help()` feeds `--help` text.
using WorkloadRegistry = ModelRegistry<Workload, Scenario>;

/// The process-wide registry. Built-ins ("modeled", "nn-trainer",
/// "bp-sweep") self-register before main() runs; see workload.cc for their
/// parameter bags.
WorkloadRegistry& Workloads();

/// Self-registration of a workload factory:
///
///   DMLSCALE_REGISTER_WORKLOAD(
///       "my-workload", "examples, seed",
///       [](const api::ModelParams& p, const api::Scenario& scenario)
///           -> Result<std::unique_ptr<api::Workload>> { ... });
///
/// The factory is variadic so lambda bodies may contain top-level braced
/// initializer lists (their commas are invisible to parentheses).
#define DMLSCALE_REGISTER_WORKLOAD(name, params_help, ...)                   \
  static const bool DMLSCALE_STATUS_CONCAT_(dmlscale_workload_registered_,   \
                                            __COUNTER__) [[maybe_unused]] =  \
      ::dmlscale::api::internal::RegisterOrDie(                              \
          ::dmlscale::api::Workloads().Register(name, params_help,           \
                                                __VA_ARGS__))

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_WORKLOAD_H_
