#ifndef DMLSCALE_API_NETWORK_H_
#define DMLSCALE_API_NETWORK_H_

#include <initializer_list>
#include <string_view>

#include "api/params.h"
#include "common/status.h"
#include "core/network.h"

namespace dmlscale::api {

/// Builds the NetworkSpec selected by a parameter bag's network keys. Every
/// registered communication model accepts these on top of its own
/// parameters, so callers opt into contention without new API surface:
///
///   topology          "ideal-switch" (default) | "star" | "fat-tree" |
///                     "mesh2d"
///   queue             "queue-free" (default) | "mm1"
///   pod               fat-tree pod size, integer >= 2 (default 4)
///   oversubscription  fat-tree core taper, >= 1 (default 1)
///   backplane         star backplane bandwidth scale, > 0 (default 1)
///   mesh_width        mesh2d grid width, integer >= 0; 0 = ceil(sqrt(n))
///   load              mm1 exogenous background utilization in [0, 1)
///
/// Topology-specific numerics demand their topology (e.g. `pod` without
/// `topology=fat-tree` is an error) so a typo'd combination cannot silently
/// price on the wrong fabric. Defaults reproduce the paper's ideal network:
/// an empty bag yields a spec with `Ideal() == true`.
[[nodiscard]] Result<core::NetworkSpec> ResolveNetworkSpec(
    const ModelParams& params);

/// ModelParams::ExpectOnly with the network keys above implicitly allowed —
/// what communication-model factories call instead of ExpectOnly.
[[nodiscard]] Status ExpectOnlyWithNetworkKeys(
    const ModelParams& params,
    std::initializer_list<std::string_view> allowed);

}  // namespace dmlscale::api

#endif  // DMLSCALE_API_NETWORK_H_
