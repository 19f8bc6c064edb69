#include "api/serving.h"

#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "nn/network.h"
#include "nn/tensor.h"

namespace dmlscale::api {

namespace {

constexpr std::string_view kArrivalKinds[] = {"poisson", "diurnal", "mmpp"};
constexpr std::string_view kCachePolicies[] = {"none", "lru"};
constexpr std::string_view kDispatchPolicies[] = {"least-outstanding",
                                                 "round-robin"};

}  // namespace

Result<serve::ServingSpec> ResolveServingSpec(const ModelParams& params,
                                              const core::LinkSpec& link) {
  serve::ServingSpec spec;
  if (params.values().empty() && params.strings().empty()) {
    // The empty bag keeps a scenario serving-free; the default spec never
    // reaches Validate() (a 0-qps stream would be rejected).
    return spec;
  }

  DMLSCALE_RETURN_NOT_OK(params.ExpectOnly(
      {"qps", "diurnal_period", "peak_to_trough", "burst_multiplier",
       "burst_fraction", "burst_duration", "batch_max", "batch_delay",
       "service_fixed", "service_per_item", "shards", "rejoin_bits",
       "hit_rate", "hit_latency", "replicas", "quantile", "target_qps",
       "target_latency", "max_replicas", "arrivals", "cache", "dispatch"}));

  const std::string arrivals = params.GetStringOr("arrivals", "poisson");
  const std::string cache = params.GetStringOr("cache", "none");
  const std::string dispatch =
      params.GetStringOr("dispatch", "least-outstanding");

  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "diurnal_period", arrivals, "diurnal", "arrivals"));
  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "peak_to_trough", arrivals, "diurnal", "arrivals"));
  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "burst_multiplier", arrivals, "mmpp", "arrivals"));
  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "burst_fraction", arrivals, "mmpp", "arrivals"));
  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "burst_duration", arrivals, "mmpp", "arrivals"));
  if ((params.Has("hit_rate") || params.Has("hit_latency")) &&
      cache == "none") {
    return Status::InvalidArgument(
        "cache parameters are meaningless without a cache tier; set "
        "cache='lru' or drop them");
  }
  if (params.Has("rejoin_bits") && params.GetOr("shards", 1.0) <= 1.0) {
    return Status::InvalidArgument(
        "rejoin_bits prices the model-parallel rejoin collective, which "
        "needs shards >= 2; set shards or drop rejoin_bits");
  }

  if (arrivals == "poisson") {
    spec.arrivals.kind = serve::ArrivalKind::kPoisson;
  } else if (arrivals == "diurnal") {
    spec.arrivals.kind = serve::ArrivalKind::kDiurnal;
    spec.arrivals.diurnal_period_s = params.GetOr("diurnal_period", 86400.0);
    spec.arrivals.diurnal_peak_to_trough = params.GetOr("peak_to_trough", 2.0);
  } else if (arrivals == "mmpp") {
    spec.arrivals.kind = serve::ArrivalKind::kMmpp;
    spec.arrivals.burst_rate_multiplier = params.GetOr("burst_multiplier", 4.0);
    spec.arrivals.burst_fraction = params.GetOr("burst_fraction", 0.1);
    spec.arrivals.burst_mean_duration_s = params.GetOr("burst_duration", 10.0);
  } else {
    return Status::InvalidArgument("unknown arrivals '" + arrivals +
                                   "'; available: " + Menu(kArrivalKinds));
  }
  spec.arrivals.rate_qps = params.GetOr("qps", 0.0);

  if (cache == "none") {
    spec.cache.policy = serve::CachePolicy::kNone;
  } else if (cache == "lru") {
    spec.cache.policy = serve::CachePolicy::kLru;
  } else {
    return Status::InvalidArgument("unknown cache '" + cache +
                                   "'; available: " + Menu(kCachePolicies));
  }
  if (spec.cache.policy != serve::CachePolicy::kNone) {
    spec.cache.hit_rate = params.GetOr("hit_rate", 0.0);
    spec.cache.hit_latency_s = params.GetOr("hit_latency", 0.0);
  }

  if (dispatch == "least-outstanding") {
    spec.dispatch = serve::DispatchPolicy::kLeastOutstanding;
  } else if (dispatch == "round-robin") {
    spec.dispatch = serve::DispatchPolicy::kRoundRobin;
  } else {
    return Status::InvalidArgument("unknown dispatch '" + dispatch +
                                   "'; available: " + Menu(kDispatchPolicies));
  }

  DMLSCALE_ASSIGN_OR_RETURN(spec.batcher.max_batch,
                            IntegerParam(params, "batch_max", 1.0, 1.0));
  spec.batcher.max_delay_s = params.GetOr("batch_delay", 0.0);

  DMLSCALE_ASSIGN_OR_RETURN(spec.replica.shards,
                            IntegerParam(params, "shards", 1.0, 1.0));
  spec.replica.service.fixed_s = params.GetOr("service_fixed", 0.0);
  spec.replica.service.per_item_s = params.GetOr("service_per_item", 0.0);
  spec.replica.rejoin_bits = params.GetOr("rejoin_bits", 0.0);
  spec.replica.link = link;

  DMLSCALE_ASSIGN_OR_RETURN(spec.replicas,
                            IntegerParam(params, "replicas", 1.0, 1.0));
  spec.quantile = params.GetOr("quantile", 0.99);
  spec.target_qps = params.GetOr("target_qps", 0.0);
  spec.target_latency_s = params.GetOr("target_latency", 0.0);
  DMLSCALE_ASSIGN_OR_RETURN(
      spec.max_replicas, IntegerParam(params, "max_replicas", 4096.0, 1.0));

  if (spec.replica.service.per_item_s <= 0.0) {
    return Status::InvalidArgument(
        "a serving spec must price its replicas: set `service_per_item` "
        "(seconds per request; `service_fixed` adds the per-batch launch "
        "cost), or fit both with api::CalibrateBatchService");
  }
  DMLSCALE_RETURN_NOT_OK(spec.Validate());
  return spec;
}

Status BatchCalibrationOptions::Validate() const {
  if (layer_sizes.size() < 2) {
    return Status::InvalidArgument(
        "layer_sizes needs at least input and output sizes");
  }
  for (int64_t size : layer_sizes) {
    if (size < 1) return Status::InvalidArgument("layer sizes must be >= 1");
  }
  int distinct = 0;
  for (size_t i = 0; i < batch_schedule.size(); ++i) {
    if (batch_schedule[i] < 1) {
      return Status::InvalidArgument("batch sizes must be >= 1");
    }
    bool seen = false;
    for (size_t j = 0; j < i; ++j) {
      if (batch_schedule[j] == batch_schedule[i]) seen = true;
    }
    if (!seen) ++distinct;
  }
  if (distinct < 2) {
    return Status::InvalidArgument(
        "batch_schedule needs at least two distinct batch sizes (the fit "
        "has two coefficients)");
  }
  return Status::OK();
}

Result<BatchCalibration> CalibrateBatchService(
    const core::NodeSpec& node, const BatchCalibrationOptions& options) {
  DMLSCALE_RETURN_NOT_OK(options.Validate());
  DMLSCALE_RETURN_NOT_OK(node.Validate());

  Pcg32 net_rng(DeriveSeed(options.seed, 1), 1);
  nn::Network network = nn::Network::FullyConnected(options.layer_sizes,
                                                    &net_rng);
  const double ma =
      static_cast<double>(network.ForwardMultiplyAddsPerExample());
  const double weights = static_cast<double>(network.WeightCount());
  const double flops = node.EffectiveFlops();

  BatchCalibration calibration;
  calibration.samples.reserve(options.batch_schedule.size());
  Pcg32 data_rng(DeriveSeed(options.seed, 2), 2);
  for (int batch : options.batch_schedule) {
    // Run the REAL forward pass (the GEMM kernels), then price the executed
    // work on the node's work-clock: 2 ops per multiply-add for the batch,
    // plus one fused touch per weight per batch launch (weight streaming) —
    // the fixed term the fit should recover.
    nn::Tensor input({batch, options.layer_sizes.front()});
    input.FillGaussian(1.0, &data_rng);
    DMLSCALE_ASSIGN_OR_RETURN(nn::Tensor output, network.Forward(input));
    if (output.shape().front() != batch) {
      return Status::Internal("forward pass dropped examples");
    }
    double seconds =
        (2.0 * ma * static_cast<double>(batch) + 2.0 * weights) / flops;
    calibration.samples.push_back(core::TimingSample{batch, seconds});
  }

  std::vector<std::function<double(int)>> basis{
      [](int) { return 1.0; },
      [](int batch) { return static_cast<double>(batch); }};
  DMLSCALE_ASSIGN_OR_RETURN(calibration.fit,
                            core::FitLinearModel(basis, calibration.samples));
  calibration.service.fixed_s = calibration.fit.coefficients[0];
  calibration.service.per_item_s = calibration.fit.coefficients[1];
  DMLSCALE_RETURN_NOT_OK(calibration.service.Validate());
  return calibration;
}

}  // namespace dmlscale::api
