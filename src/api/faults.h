#ifndef DMLSCALE_API_FAULTS_H_
#define DMLSCALE_API_FAULTS_H_

#include "api/params.h"
#include "common/status.h"
#include "core/faults.h"

namespace dmlscale::api {

/// Resolves a parameter bag into a core::FaultSpec — the front door's
/// failure-model keys, mirroring ResolveNetworkSpec for fabrics:
///
///   numeric: mtbf, mttr, straggler, checkpoint_interval, checkpoint_cost,
///            takeover, spec_threshold
///   string:  recovery ("checkpoint-restart" | "replica" | "speculative")
///
/// Every key is validated eagerly with an actionable InvalidArgument:
/// unknown keys list the accepted menu, and strategy-owned keys (takeover,
/// spec_threshold) name the selection they require. The empty bag resolves
/// to the disabled spec (`Enabled() == false`).
[[nodiscard]] Result<core::FaultSpec> ResolveFaultSpec(
    const ModelParams& params);

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_FAULTS_H_
