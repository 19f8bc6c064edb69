#include "core/hardware.h"

#include <cmath>

#include "common/units.h"

namespace dmlscale::core {

Status NodeSpec::Validate() const {
  if (!std::isfinite(peak_flops) || peak_flops <= 0.0) {
    return Status::InvalidArgument(
        "NodeSpec: peak_flops must be finite and > 0");
  }
  if (!std::isfinite(efficiency) || efficiency <= 0.0 || efficiency > 1.0) {
    return Status::InvalidArgument("NodeSpec: efficiency must be in (0, 1]");
  }
  return Status::OK();
}

Status LinkSpec::Validate() const {
  if (!std::isfinite(bandwidth_bps) || bandwidth_bps <= 0.0) {
    return Status::InvalidArgument(
        "LinkSpec: bandwidth_bps must be finite and > 0");
  }
  if (!std::isfinite(latency_s) || latency_s < 0.0) {
    return Status::InvalidArgument(
        "LinkSpec: latency_s must be finite and >= 0");
  }
  return Status::OK();
}

Status ClusterSpec::Validate() const {
  DMLSCALE_RETURN_NOT_OK(node.Validate());
  if (!shared_memory) {
    DMLSCALE_RETURN_NOT_OK(link.Validate());
  }
  if (max_nodes < 1) {
    return Status::InvalidArgument("ClusterSpec: max_nodes must be >= 1");
  }
  return Status::OK();
}

namespace presets {

NodeSpec XeonE3_1240() {
  return NodeSpec{.name = "Xeon E3-1240",
                  .peak_flops = 211.2 * kGiga,
                  .efficiency = 0.8};
}

NodeSpec XeonE3_1240Double() {
  return NodeSpec{.name = "Xeon E3-1240 (double precision)",
                  .peak_flops = 105.6 * kGiga,
                  .efficiency = 0.8};
}

NodeSpec NvidiaK40() {
  return NodeSpec{.name = "nVidia K40",
                  .peak_flops = 4.28 * kTera,
                  .efficiency = 0.5};
}

NodeSpec Dl980Core() {
  // 1.9 GHz with nominally 8 double-precision FLOPs/cycle. The exact value
  // does not matter: F cancels out of shared-memory speedup (Section V-B).
  return NodeSpec{.name = "DL980 core",
                  .peak_flops = 1.9 * kGiga * 8.0,
                  .efficiency = 0.8};
}

ClusterSpec SparkCluster(int max_nodes) {
  return ClusterSpec{.node = XeonE3_1240Double(),
                     .link = LinkSpec{.bandwidth_bps = kGigabitPerSecond},
                     .max_nodes = max_nodes,
                     .shared_memory = false};
}

ClusterSpec GpuCluster(int max_nodes) {
  return ClusterSpec{.node = NvidiaK40(),
                     .link = LinkSpec{.bandwidth_bps = kGigabitPerSecond},
                     .max_nodes = max_nodes,
                     .shared_memory = false};
}

ClusterSpec SharedMemoryServer(int max_workers) {
  return ClusterSpec{.node = Dl980Core(),
                     .link = LinkSpec{.bandwidth_bps = kGigabitPerSecond},
                     .max_nodes = max_workers,
                     .shared_memory = true};
}

}  // namespace presets
}  // namespace dmlscale::core
