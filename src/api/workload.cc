#include "api/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bp/bp.h"
#include "bp/mrf.h"
#include "bp/parallel_bp.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "models/graphical_inference.h"
#include "models/neural_cost.h"
#include "nn/data.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace dmlscale::api {

Result<std::vector<core::TimingSample>> Workload::MeasureSchedule(
    const std::vector<int>& nodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("empty node schedule");
  }
  std::vector<core::TimingSample> samples;
  samples.reserve(nodes.size());
  for (int n : nodes) {
    DMLSCALE_ASSIGN_OR_RETURN(core::TimingSample sample, Measure(n));
    samples.push_back(sample);
  }
  return samples;
}

// ---------------------------------------------------------------------------
// ModeledWorkload.
// ---------------------------------------------------------------------------

ModeledWorkload::ModeledWorkload(Scenario scenario)
    : scenario_(std::move(scenario)) {}

std::string ModeledWorkload::name() const {
  return "modeled:" + scenario_.name();
}

Result<core::TimingSample> ModeledWorkload::Measure(int nodes) {
  if (nodes < 1) return Status::InvalidArgument("nodes must be >= 1");
  return core::TimingSample{nodes, scenario_.Seconds(nodes)};
}

// ---------------------------------------------------------------------------
// NnTrainerWorkload.
// ---------------------------------------------------------------------------

std::vector<int64_t> Fig2TowerLayerSizes(double width_scale) {
  const std::vector<int64_t> tower{784, 2500, 2000, 1500, 1000, 500, 10};
  std::vector<int64_t> scaled;
  scaled.push_back(tower.front());
  for (size_t i = 1; i + 1 < tower.size(); ++i) {
    scaled.push_back(std::max<int64_t>(
        4, std::llround(static_cast<double>(tower[i]) * width_scale)));
  }
  scaled.push_back(tower.back());
  return scaled;
}

Status NnTrainerWorkloadOptions::Validate() const {
  if (layer_sizes.size() < 2) {
    return Status::InvalidArgument(
        "layer_sizes needs at least {inputs, outputs}");
  }
  for (int64_t size : layer_sizes) {
    if (size < 1) return Status::InvalidArgument("layer sizes must be >= 1");
  }
  if (examples < 1) return Status::InvalidArgument("examples must be >= 1");
  if (batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (batch_size > examples) {
    return Status::InvalidArgument("batch_size must be <= examples");
  }
  if (epochs < 1) return Status::InvalidArgument("epochs must be >= 1");
  DMLSCALE_RETURN_NOT_OK(ValidateThreadCount("threads", threads));
  return Status::OK();
}

Result<std::unique_ptr<NnTrainerWorkload>> NnTrainerWorkload::Create(
    const Scenario& scenario, NnTrainerWorkloadOptions options) {
  DMLSCALE_RETURN_NOT_OK(options.Validate());
  return std::unique_ptr<NnTrainerWorkload>(
      new NnTrainerWorkload(scenario.cluster(), std::move(options)));
}

NnTrainerWorkload::NnTrainerWorkload(core::ClusterSpec cluster,
                                     NnTrainerWorkloadOptions options)
    : cluster_(std::move(cluster)), options_(std::move(options)) {}

Result<core::TimingSample> NnTrainerWorkload::Measure(int nodes) {
  if (nodes < 1) return Status::InvalidArgument("nodes must be >= 1");

  // Per-purpose RNG streams derived from the seed: every Measure() call
  // trains on identical data from identical weights, independent of the
  // call order and of `nodes`.
  Pcg32 data_rng(DeriveSeed(options_.seed, 1), 1);
  DMLSCALE_ASSIGN_OR_RETURN(
      nn::Dataset data,
      nn::SyntheticClassification(options_.examples,
                                  options_.layer_sizes.front(),
                                  options_.layer_sizes.back(), /*noise=*/0.4,
                                  &data_rng));
  Pcg32 net_rng(DeriveSeed(options_.seed, 2), 2);
  nn::Network network = nn::Network::FullyConnected(options_.layer_sizes,
                                                    &net_rng);
  nn::SoftmaxCrossEntropyLoss loss;
  nn::SgdOptimizer optimizer(0.1);

  nn::TrainerOptions trainer_options;
  trainer_options.epochs = options_.epochs;
  trainer_options.batch_size = options_.batch_size;
  trainer_options.shuffle = true;
  // Exactly min(nodes, batch length) gradient shards per mini-batch.
  trainer_options.shards_per_batch = nodes;
  trainer_options.threads = nodes > 1 ? options_.threads : 1;

  Pcg32 shuffle_rng(DeriveSeed(options_.seed, 3), 3);
  DMLSCALE_ASSIGN_OR_RETURN(
      nn::TrainingHistory history,
      nn::TrainMiniBatches(&network, data, loss, &optimizer, trainer_options,
                           &shuffle_rng));
  last_epoch_loss_ = history.epoch_loss;
  if (history.total_batches < 1) {
    return Status::Internal("training executed no batches");
  }

  // Work-clock: price the EXECUTED counters on the scenario's hardware.
  // Multiply-add convention (Section V-A): 2 ops per MA, training = 3
  // forward-equivalents; optimizer step and each replica reduction are
  // one fused multiply-add per weight (2 ops).
  double ma = static_cast<double>(network.ForwardMultiplyAddsPerExample());
  double weights = static_cast<double>(network.WeightCount());
  double compute_ops =
      6.0 * ma * static_cast<double>(history.bottleneck_examples) +
      2.0 * weights *
          static_cast<double>(history.replica_reductions +
                              history.total_batches);
  double seconds = compute_ops / cluster_.node.EffectiveFlops();
  if (!cluster_.shared_memory && history.replica_reductions > 0) {
    // Parameter broadcast + gradient gather through the master, 64-bit
    // parameters, once per replica reduction.
    double bits = 2.0 * 64.0 * weights *
                  static_cast<double>(history.replica_reductions);
    seconds += bits / cluster_.link.bandwidth_bps;
  }
  // Per optimizer step — the "one unit of progress" AlgorithmModel prices.
  return core::TimingSample{
      nodes, seconds / static_cast<double>(history.total_batches)};
}

// ---------------------------------------------------------------------------
// BpSweepWorkload.
// ---------------------------------------------------------------------------

Status BpSweepWorkloadOptions::Validate() const {
  if (grid_rows < 2 || grid_cols < 2) {
    return Status::InvalidArgument("grid must be at least 2x2");
  }
  if (states < 2) return Status::InvalidArgument("states must be >= 2");
  if (coupling <= 0.0 || !std::isfinite(coupling)) {
    return Status::InvalidArgument("coupling must be finite and > 0");
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (tolerance <= 0.0) {
    return Status::InvalidArgument("tolerance must be > 0");
  }
  DMLSCALE_RETURN_NOT_OK(ValidateThreadCount("threads", threads));
  return Status::OK();
}

// The MRF keeps a raw pointer to its graph, so both live behind stable
// heap addresses for the workload's lifetime.
struct BpSweepWorkload::State {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<bp::PairwiseMrf> mrf;
};

Result<std::unique_ptr<BpSweepWorkload>> BpSweepWorkload::Create(
    const Scenario& scenario, BpSweepWorkloadOptions options) {
  DMLSCALE_RETURN_NOT_OK(options.Validate());
  DMLSCALE_ASSIGN_OR_RETURN(graph::Graph grid,
                            graph::Grid2d(options.grid_rows,
                                          options.grid_cols));
  auto state = std::make_unique<State>();
  state->graph = std::make_unique<graph::Graph>(std::move(grid));
  Pcg32 mrf_rng(DeriveSeed(options.seed, 0), 7);
  DMLSCALE_ASSIGN_OR_RETURN(
      bp::PairwiseMrf mrf,
      bp::PairwiseMrf::Random(state->graph.get(), options.states,
                              options.coupling, &mrf_rng));
  state->mrf = std::make_unique<bp::PairwiseMrf>(std::move(mrf));
  return std::unique_ptr<BpSweepWorkload>(new BpSweepWorkload(
      scenario.cluster(), std::move(options), std::move(state)));
}

BpSweepWorkload::BpSweepWorkload(core::ClusterSpec cluster,
                                 BpSweepWorkloadOptions options,
                                 std::unique_ptr<State> state)
    : cluster_(std::move(cluster)),
      options_(std::move(options)),
      state_(std::move(state)) {}

BpSweepWorkload::~BpSweepWorkload() = default;

Result<core::TimingSample> BpSweepWorkload::Measure(int nodes) {
  if (nodes < 1) return Status::InvalidArgument("nodes must be >= 1");
  const graph::Graph& g = *state_->graph;
  if (static_cast<int64_t>(nodes) > g.num_vertices()) {
    return Status::InvalidArgument("more workers than vertices");
  }

  // Fresh solver per call: messages start uniform, so every node count
  // solves the same problem from the same state.
  bp::LoopyBp solver(state_->mrf.get());
  Pcg32 part_rng(DeriveSeed(options_.seed, static_cast<uint64_t>(nodes)),
                 static_cast<uint64_t>(nodes));
  DMLSCALE_ASSIGN_OR_RETURN(
      graph::Partition partition,
      graph::RandomPartition(g.num_vertices(), nodes, &part_rng));

  bp::BpOptions bp_options{.max_iterations = options_.max_iterations,
                           .tolerance = options_.tolerance};
  DMLSCALE_ASSIGN_OR_RETURN(
      bp::ParallelBpStats stats,
      bp::RunParallelBp(&solver, partition, bp_options, options_.threads));
  last_iterations_ = stats.run.iterations;
  last_converged_ = stats.run.converged;
  if (stats.run.iterations < 1) {
    return Status::Internal("BP executed no supersteps");
  }

  int64_t max_edges = 0;
  for (int64_t e : stats.edges_per_worker) max_edges = std::max(max_edges, e);
  double compute_ops = static_cast<double>(max_edges) *
                       models::BpOperationsPerEdge(options_.states);
  double seconds = static_cast<double>(stats.run.iterations) * compute_ops /
                   cluster_.node.EffectiveFlops();
  if (!cluster_.shared_memory && stats.cut_directed_edges > 0) {
    double bits = static_cast<double>(stats.cut_directed_edges) *
                  static_cast<double>(options_.states) * 64.0;
    seconds += static_cast<double>(stats.run.iterations) * bits /
               cluster_.link.bandwidth_bps;
  }
  // Per superstep, using the iterations the run ACTUALLY took.
  return core::TimingSample{
      nodes, seconds / static_cast<double>(stats.run.iterations)};
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

WorkloadRegistry& Workloads() {
  static auto* registry = new WorkloadRegistry();
  return *registry;
}

namespace {

using WorkloadResult = Result<std::unique_ptr<Workload>>;

DMLSCALE_REGISTER_WORKLOAD(
    "modeled", "(no parameters; evaluates the scenario's closed form)",
    [](const ModelParams& params, const Scenario& scenario) -> WorkloadResult {
      DMLSCALE_RETURN_NOT_OK(params.ExpectOnly({}));
      return std::unique_ptr<Workload>(
          std::make_unique<ModeledWorkload>(scenario));
    });

DMLSCALE_REGISTER_WORKLOAD(
    "nn-trainer",
    "width_scale (Fig. 2 tower scale, default 0.1), examples, batch, epochs, "
    "seed, threads",
    [](const ModelParams& params, const Scenario& scenario) -> WorkloadResult {
      DMLSCALE_RETURN_NOT_OK(params.ExpectOnly(
          {"width_scale", "examples", "batch", "epochs", "seed", "threads"}));
      double width_scale = params.GetOr("width_scale", 0.1);
      // Spelled so NaN fails too.
      if (!(width_scale > 0.0 && width_scale <= 1.0)) {
        return Status::InvalidArgument("width_scale must be in (0, 1]");
      }
      NnTrainerWorkloadOptions options;
      // The Fig. 2 tower with hidden widths scaled down so measuring
      // stays cheap.
      options.layer_sizes = Fig2TowerLayerSizes(width_scale);
      DMLSCALE_ASSIGN_OR_RETURN(options.examples,
                                IntegerParam(params, "examples", 256.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.batch_size,
                                IntegerParam(params, "batch", 64.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.epochs,
                                IntegerParam(params, "epochs", 1.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.seed,
                                IntegerParam(params, "seed", 42.0, 0.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.threads,
                                IntegerParam(params, "threads", 1.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(std::unique_ptr<NnTrainerWorkload> workload,
                                NnTrainerWorkload::Create(scenario,
                                                          std::move(options)));
      return std::unique_ptr<Workload>(std::move(workload));
    });

DMLSCALE_REGISTER_WORKLOAD(
    "bp-sweep",
    "rows, cols, states, coupling, max_iterations, seed, threads",
    [](const ModelParams& params, const Scenario& scenario) -> WorkloadResult {
      DMLSCALE_RETURN_NOT_OK(params.ExpectOnly(
          {"rows", "cols", "states", "coupling", "max_iterations", "seed",
           "threads"}));
      BpSweepWorkloadOptions options;
      DMLSCALE_ASSIGN_OR_RETURN(options.grid_rows,
                                IntegerParam(params, "rows", 24.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.grid_cols,
                                IntegerParam(params, "cols", 24.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.states,
                                IntegerParam(params, "states", 2.0, 1.0));
      options.coupling = params.GetOr("coupling", 0.3);
      DMLSCALE_ASSIGN_OR_RETURN(
          options.max_iterations,
          IntegerParam(params, "max_iterations", 30.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.seed,
                                IntegerParam(params, "seed", 42.0, 0.0));
      DMLSCALE_ASSIGN_OR_RETURN(options.threads,
                                IntegerParam(params, "threads", 1.0, 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(std::unique_ptr<BpSweepWorkload> workload,
                                BpSweepWorkload::Create(scenario,
                                                        std::move(options)));
      return std::unique_ptr<Workload>(std::move(workload));
    });

}  // namespace
}  // namespace dmlscale::api
