#ifndef DMLSCALE_SERVE_CACHE_H_
#define DMLSCALE_SERVE_CACHE_H_

#include "common/status.h"

namespace dmlscale::serve {

/// Whether a response-cache tier sits in front of the replicas.
enum class CachePolicy {
  kNone,  // no cache: every request reaches a replica
  kLru,   // a cache tier, declared by its hit rate (see CacheSpec)
};

/// A response-cache tier declared by its hit rate: nothing is stored and
/// nothing evicts. The simulator and the analytic model both treat the hit
/// RATE as an input parameter (production hit rates come from content
/// popularity, which the scenario author knows and this library does not),
/// and short-circuit hits at `hit_latency_s` — the modeling philosophy
/// everywhere in this repo: measured inputs, modeled consequences.
struct CacheSpec {
  CachePolicy policy = CachePolicy::kNone;
  /// Probability a request short-circuits at the cache, in [0, 1).
  double hit_rate = 0.0;
  /// Latency of a cache hit, seconds (>= 0; typically micro-, not
  /// milliseconds).
  double hit_latency_s = 0.0;

  bool Enabled() const { return policy != CachePolicy::kNone; }

  /// The miss fraction reaching the replicas: 1 - hit_rate when enabled.
  double MissRate() const { return Enabled() ? 1.0 - hit_rate : 1.0; }

  [[nodiscard]] Status Validate() const;
};

}  // namespace dmlscale::serve

#endif  // DMLSCALE_SERVE_CACHE_H_
