#include "serve/replica.h"

#include <cmath>

#include "core/communication_model.h"

namespace dmlscale::serve {

Status ReplicaSpec::Validate() const {
  if (shards < 1) {
    return Status::InvalidArgument("replica shards must be >= 1");
  }
  DMLSCALE_RETURN_NOT_OK(service.Validate());
  if (shards > 1) {
    if (!std::isfinite(rejoin_bits) || rejoin_bits < 0.0) {
      return Status::InvalidArgument("rejoin_bits must be finite and >= 0");
    }
    DMLSCALE_RETURN_NOT_OK(link.Validate());
  }
  return Status::OK();
}

core::BatchServiceModel ReplicaSpec::ShardedService() const {
  if (shards == 1) return service;
  core::BatchServiceModel sharded;
  sharded.per_item_s = service.per_item_s / static_cast<double>(shards);
  double rejoin_s = 0.0;
  if (rejoin_bits > 0.0) {
    rejoin_s = core::TreeComm(rejoin_bits, link).Seconds(shards);
  }
  sharded.fixed_s = service.fixed_s + rejoin_s;
  return sharded;
}

}  // namespace dmlscale::serve
