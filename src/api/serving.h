#ifndef DMLSCALE_API_SERVING_H_
#define DMLSCALE_API_SERVING_H_

#include <cstdint>
#include <vector>

#include "api/params.h"
#include "common/status.h"
#include "core/calibration.h"
#include "core/hardware.h"
#include "core/queueing.h"
#include "serve/cluster.h"

namespace dmlscale::api {

/// Resolves a parameter bag into a serve::ServingSpec — the front door's
/// serving keys, mirroring ResolveFaultSpec for failure models:
///
///   numeric: qps, diurnal_period, peak_to_trough, burst_multiplier,
///            burst_fraction, burst_duration, batch_max, batch_delay,
///            service_fixed, service_per_item, shards, rejoin_bits,
///            hit_rate, hit_latency, replicas, quantile, target_qps,
///            target_latency, max_replicas
///   string:  arrivals ("poisson" | "diurnal" | "mmpp"),
///            cache ("none" | "lru": a tier declared by hit_rate and
///            hit_latency; nothing evicts, see serve::CacheSpec),
///            dispatch ("least-outstanding" | "round-robin")
///
/// Every key is validated eagerly with an actionable InvalidArgument:
/// unknown keys list the accepted menu, the integer keys (batch_max,
/// shards, replicas, max_replicas) must be whole numbers that fit an int,
/// and shape-owned keys (the diurnal and MMPP knobs, the cache knobs,
/// rejoin_bits) name the selection they require. The empty bag resolves to
/// the default (inert) spec without validation, keeping a scenario
/// serving-free.
///
/// `link` is the intra-replica interconnect pricing the model-parallel
/// rejoin collective (only read when shards > 1); Scenario::Builder passes
/// the scenario's cluster link.
[[nodiscard]] Result<serve::ServingSpec> ResolveServingSpec(
    const ModelParams& params, const core::LinkSpec& link = {});

/// How CalibrateBatchService measures: which fully connected network to
/// run, at which batch sizes, from which seed.
struct BatchCalibrationOptions {
  /// Layer sizes of the forward-pass network (>= 2 entries).
  std::vector<int64_t> layer_sizes = {256, 512, 64};
  /// Batch sizes to measure (>= 2 DISTINCT sizes — two coefficients).
  std::vector<int> batch_schedule = {1, 2, 4, 8, 16};
  uint64_t seed = 7;

  [[nodiscard]] Status Validate() const;
};

/// A fitted batch service model plus everything the fit was made of —
/// the serving analogue of CalibratedScenario.
struct BatchCalibration {
  /// Latency(b) = fixed_s + b * per_item_s, ready for ReplicaSpec::service.
  core::BatchServiceModel service;
  /// Raw fit diagnostics (rmse in seconds, r_squared).
  core::CalibrationResult fit;
  /// The measured samples the fit consumed; `nodes` carries the BATCH SIZE
  /// (the calibration abscissa), not a node count.
  std::vector<core::TimingSample> samples;
};

/// Fits the affine batch latency model from the real GEMM-backed forward
/// pass: builds nn::Network::FullyConnected(options.layer_sizes), runs one
/// Forward per scheduled batch size, prices the executed multiply-adds on
/// `node` with the work-clock convention (2 ops per MA, plus one weight
/// touch per batch — the fixed term), and least-squares fits
/// {fixed, per_item} over the basis {1, b} with core::FitLinearModel.
/// Deterministic: the work-clock prices executed counters, never wall time.
[[nodiscard]] Result<BatchCalibration> CalibrateBatchService(
    const core::NodeSpec& node, const BatchCalibrationOptions& options = {});

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_SERVING_H_
