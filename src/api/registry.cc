#include "api/registry.h"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/network.h"

namespace dmlscale::api {

ComputeModelRegistry& ComputeModels() {
  static auto* registry = new ComputeModelRegistry();
  return *registry;
}

CommModelRegistry& CommModels() {
  static auto* registry = new CommModelRegistry();
  return *registry;
}

namespace internal {

bool RegisterOrDie(const Status& status) {
  if (!status.ok()) {
    dmlscale::internal::AbortWithMessage("model registration failed: " +
                                         status.ToString());
  }
  return true;
}

}  // namespace internal

namespace {

using ComputeResult = Result<std::unique_ptr<core::ComputationModel>>;
using CommResult = Result<std::unique_ptr<core::CommunicationModel>>;

// The value of `key` (`def` when absent; required when `def` is empty);
// InvalidArgument naming the key unless it is finite and > 0. The check is
// spelled positively because NaN fails every comparison, so a plain
// `value <= 0.0` would let it through to the model constructors.
Result<double> PositiveParam(const ModelParams& params, const std::string& key,
                             std::optional<double> def = std::nullopt) {
  if (!def.has_value() && !params.Has(key)) return params.Get(key).status();
  double value = params.GetOr(key, def.value_or(0.0));
  if (!(std::isfinite(value) && value > 0.0)) {
    return Status::InvalidArgument(key + " must be finite and > 0");
  }
  return value;
}

// ---------------------------------------------------------------------------
// Built-in computation models (Section III / IV formulas from core/).
// BottleneckCompute takes a callable, which a scalar parameter bag cannot
// express; it is reachable through ScenarioBuilder::Compute(fn) instead.
// ---------------------------------------------------------------------------

DMLSCALE_REGISTER_COMPUTE_MODEL(
    "perfectly-parallel", "total_flops",
    [](const ModelParams& params, const core::NodeSpec& node) -> ComputeResult {
      DMLSCALE_RETURN_NOT_OK(params.ExpectOnly({"total_flops"}));
      DMLSCALE_ASSIGN_OR_RETURN(double total_flops,
                                PositiveParam(params, "total_flops"));
      return std::unique_ptr<core::ComputationModel>(
          std::make_unique<core::PerfectlyParallelCompute>(total_flops, node));
    },
    ModelParams{{"total_flops", 196e9}});

DMLSCALE_REGISTER_COMPUTE_MODEL(
    "amdahl", "total_flops, serial_fraction",
    [](const ModelParams& params, const core::NodeSpec& node) -> ComputeResult {
      DMLSCALE_RETURN_NOT_OK(
          params.ExpectOnly({"total_flops", "serial_fraction"}));
      DMLSCALE_ASSIGN_OR_RETURN(double total_flops,
                                PositiveParam(params, "total_flops"));
      DMLSCALE_ASSIGN_OR_RETURN(double serial, params.Get("serial_fraction"));
      if (!(serial >= 0.0 && serial <= 1.0)) {  // NaN fails, so it is caught
        return Status::InvalidArgument(
            "serial_fraction must be finite and in [0, 1]");
      }
      return std::unique_ptr<core::ComputationModel>(
          std::make_unique<core::AmdahlCompute>(total_flops, serial, node));
    },
    ModelParams{{"total_flops", 196e9}, {"serial_fraction", 0.05}});

// ---------------------------------------------------------------------------
// Built-in communication models. `bits` is the collective's payload; the
// composite "spark-gd" is the Fig. 2 protocol (torrent broadcast of the
// parameters followed by two-wave aggregation, Section V-A). Every factory
// additionally accepts the network keys of api/network.h (`topology`,
// `queue`, ...), so any collective can be priced on a contended fabric
// without caller changes.
// ---------------------------------------------------------------------------

DMLSCALE_REGISTER_COMM_MODEL(
    "shared-memory", "(no parameters; network keys accepted and ignored)",
    [](const ModelParams& params, const core::LinkSpec&) -> CommResult {
      DMLSCALE_RETURN_NOT_OK(ExpectOnlyWithNetworkKeys(params, {}));
      // Validate but discard the network selection: shared memory moves no
      // network traffic, so sweeps may apply a topology axis uniformly.
      DMLSCALE_RETURN_NOT_OK(ResolveNetworkSpec(params).status());
      return std::unique_ptr<core::CommunicationModel>(
          std::make_unique<core::SharedMemoryComm>());
    });

// The factory of a collective priced from its payload alone: `bits` plus
// the network keys, then CommT(bits, link, network).
template <typename CommT>
CommResult BitsOnlyComm(const ModelParams& params,
                        const core::LinkSpec& link) {
  DMLSCALE_RETURN_NOT_OK(ExpectOnlyWithNetworkKeys(params, {"bits"}));
  DMLSCALE_ASSIGN_OR_RETURN(double bits, PositiveParam(params, "bits"));
  DMLSCALE_ASSIGN_OR_RETURN(core::NetworkSpec network,
                            ResolveNetworkSpec(params));
  return std::unique_ptr<core::CommunicationModel>(
      std::make_unique<CommT>(bits, link, std::move(network)));
}

DMLSCALE_REGISTER_COMM_MODEL("linear",
                             "bits (per node, through a single master)",
                             BitsOnlyComm<core::LinearComm>,
                             ModelParams{{"bits", 64e6}});

DMLSCALE_REGISTER_COMM_MODEL("fixed-volume", "bits (independent of n)",
                             BitsOnlyComm<core::FixedVolumeComm>,
                             ModelParams{{"bits", 64e6}});

DMLSCALE_REGISTER_COMM_MODEL(
    "tree", "bits, rounds (default 1; generic GD uses 2)",
    [](const ModelParams& params, const core::LinkSpec& link) -> CommResult {
      DMLSCALE_RETURN_NOT_OK(
          ExpectOnlyWithNetworkKeys(params, {"bits", "rounds"}));
      DMLSCALE_ASSIGN_OR_RETURN(double bits, PositiveParam(params, "bits"));
      DMLSCALE_ASSIGN_OR_RETURN(double rounds,
                                PositiveParam(params, "rounds", 1.0));
      DMLSCALE_ASSIGN_OR_RETURN(core::NetworkSpec network,
                                ResolveNetworkSpec(params));
      return std::unique_ptr<core::CommunicationModel>(
          std::make_unique<core::TreeComm>(bits, link, rounds,
                                           std::move(network)));
    },
    ModelParams{{"bits", 64e6}, {"rounds", 2}});

DMLSCALE_REGISTER_COMM_MODEL("torrent-broadcast", "bits",
                             BitsOnlyComm<core::TorrentBroadcastComm>,
                             ModelParams{{"bits", 64e6}});

DMLSCALE_REGISTER_COMM_MODEL("two-wave", "bits",
                             BitsOnlyComm<core::TwoWaveAggregationComm>,
                             ModelParams{{"bits", 64e6}});

DMLSCALE_REGISTER_COMM_MODEL("ring-allreduce", "bits",
                             BitsOnlyComm<core::RingAllReduceComm>,
                             ModelParams{{"bits", 64e6}});

DMLSCALE_REGISTER_COMM_MODEL("recursive-doubling", "bits",
                             BitsOnlyComm<core::RecursiveDoublingComm>,
                             ModelParams{{"bits", 64e6}});

DMLSCALE_REGISTER_COMM_MODEL("shuffle", "bits (total volume across all nodes)",
                             BitsOnlyComm<core::ShuffleComm>,
                             ModelParams{{"bits", 64e6}});

DMLSCALE_REGISTER_COMM_MODEL(
    "spark-gd", "bits (torrent broadcast + two-wave aggregation, Fig. 2)",
    [](const ModelParams& params, const core::LinkSpec& link) -> CommResult {
      DMLSCALE_RETURN_NOT_OK(ExpectOnlyWithNetworkKeys(params, {"bits"}));
      DMLSCALE_ASSIGN_OR_RETURN(double bits, PositiveParam(params, "bits"));
      DMLSCALE_ASSIGN_OR_RETURN(core::NetworkSpec network,
                                ResolveNetworkSpec(params));
      // Stages price their own traffic on the shared fabric; the composite
      // itself keeps a copy only so its label carries the decoration.
      std::vector<std::unique_ptr<core::CommunicationModel>> stages;
      stages.push_back(
          std::make_unique<core::TorrentBroadcastComm>(bits, link, network));
      stages.push_back(
          std::make_unique<core::TwoWaveAggregationComm>(bits, link, network));
      return std::unique_ptr<core::CommunicationModel>(
          std::make_unique<core::CompositeComm>(std::move(stages),
                                                std::move(network)));
    },
    ModelParams{{"bits", 64e6}});

}  // namespace
}  // namespace dmlscale::api
