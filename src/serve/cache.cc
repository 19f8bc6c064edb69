#include "serve/cache.h"

#include <cmath>

namespace dmlscale::serve {

Status CacheSpec::Validate() const {
  if (!Enabled()) {
    if (hit_rate != 0.0) {
      return Status::InvalidArgument(
          "hit_rate is set but the cache policy is 'none'; set cache='lru' "
          "or drop hit_rate");
    }
    return Status::OK();
  }
  if (!(hit_rate >= 0.0 && hit_rate < 1.0)) {
    return Status::InvalidArgument(
        "cache hit_rate must be in [0, 1) — a hit rate of 1 would mean no "
        "backend exists to fill the cache");
  }
  if (!std::isfinite(hit_latency_s) || hit_latency_s < 0.0) {
    return Status::InvalidArgument(
        "cache hit_latency must be finite and >= 0 s");
  }
  return Status::OK();
}

}  // namespace dmlscale::serve
