#include "api/network.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/queueing.h"
#include "core/topology.h"

namespace dmlscale::api {

namespace {

constexpr std::string_view kNetworkKeys[] = {
    "topology", "queue",      "pod", "oversubscription",
    "backplane", "mesh_width", "load"};

constexpr std::string_view kTopologies[] = {"ideal-switch", "star", "fat-tree",
                                            "mesh2d"};
constexpr std::string_view kQueues[] = {"queue-free", "mm1"};

}  // namespace

Result<core::NetworkSpec> ResolveNetworkSpec(const ModelParams& params) {
  const std::string topology = params.GetStringOr("topology", "ideal-switch");
  const std::string queue = params.GetStringOr("queue", "queue-free");

  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "pod", topology, "fat-tree", "topology"));
  DMLSCALE_RETURN_NOT_OK(RequireOwner(params, "oversubscription", topology,
                                      "fat-tree", "topology"));
  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "backplane", topology, "star", "topology"));
  DMLSCALE_RETURN_NOT_OK(
      RequireOwner(params, "mesh_width", topology, "mesh2d", "topology"));
  DMLSCALE_RETURN_NOT_OK(RequireOwner(params, "load", queue, "mm1", "queue"));

  core::NetworkSpec spec;
  if (topology == "ideal-switch") {
    // Leave null: NetworkSpec's ideal default, bit-identical closed forms.
  } else if (topology == "star") {
    // The checks are spelled positively so NaN, which fails every
    // comparison, is rejected too.
    double backplane = params.GetOr("backplane", 1.0);
    if (!(std::isfinite(backplane) && backplane > 0.0)) {
      return Status::InvalidArgument("backplane must be finite and > 0");
    }
    spec.topology = std::make_shared<core::StarTopology>(backplane);
  } else if (topology == "fat-tree") {
    DMLSCALE_ASSIGN_OR_RETURN(int pod, IntegerParam(params, "pod", 4.0, 2.0));
    double oversubscription = params.GetOr("oversubscription", 1.0);
    if (!(std::isfinite(oversubscription) && oversubscription >= 1.0)) {
      return Status::InvalidArgument(
          "oversubscription must be finite and >= 1");
    }
    spec.topology =
        std::make_shared<core::FatTreeTopology>(pod, oversubscription);
  } else if (topology == "mesh2d") {
    DMLSCALE_ASSIGN_OR_RETURN(int width,
                              IntegerParam(params, "mesh_width", 0.0, 0.0));
    spec.topology = std::make_shared<core::Mesh2dTopology>(width);
  } else {
    return Status::InvalidArgument("unknown topology '" + topology +
                                   "'; available: " + Menu(kTopologies));
  }

  if (queue == "queue-free") {
    // Leave null: the paper's no-waiting assumption.
  } else if (queue == "mm1") {
    double load = params.GetOr("load", 0.0);
    if (!(load >= 0.0 && load < 1.0)) {
      return Status::InvalidArgument("load must be finite and in [0, 1)");
    }
    spec.queue = std::make_shared<core::Mm1QueueModel>(load);
  } else {
    return Status::InvalidArgument("unknown queue '" + queue +
                                   "'; available: " + Menu(kQueues));
  }

  return spec;
}

Status ExpectOnlyWithNetworkKeys(
    const ModelParams& params,
    std::initializer_list<std::string_view> allowed) {
  auto known = [&](const std::string& key) {
    return std::find(allowed.begin(), allowed.end(), key) != allowed.end() ||
           std::find(std::begin(kNetworkKeys), std::end(kNetworkKeys), key) !=
               std::end(kNetworkKeys);
  };
  auto fail = [&](const std::string& key) {
    std::vector<std::string> names(allowed.begin(), allowed.end());
    for (std::string_view net : kNetworkKeys) names.emplace_back(net);
    return Status::InvalidArgument("unknown parameter '" + key +
                                   "' (accepted: " +
                                   Join(names, ", ", "<none>") + ")");
  };
  for (const auto& [key, value] : params.values()) {
    if (!known(key)) return fail(key);
  }
  for (const auto& [key, value] : params.strings()) {
    if (!known(key)) return fail(key);
  }
  return Status::OK();
}

}  // namespace dmlscale::api
