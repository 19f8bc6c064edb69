#ifndef DMLSCALE_SERVE_DISPATCH_INDEX_H_
#define DMLSCALE_SERVE_DISPATCH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmlscale::serve {

/// Least-outstanding dispatch in O(log R): a min segment tree over the
/// per-replica outstanding counts (requests sent minus completions heard
/// back), owned by the serving frontend.
///
/// Tie-break contract: Pick(cursor) returns the replica holding the minimum
/// count that comes first in the rotated order cursor, cursor + 1, ...,
/// R - 1, 0, ..., cursor - 1 — exactly what a strict-min scan starting at
/// the cursor picks. An all-idle fleet therefore degrades to round-robin
/// when the caller advances the cursor past each pick.
///
/// Memory: 2 * P int64 counts, P the power of two >= R (padding leaves hold
/// INT64_MAX and never win).
class LeastOutstandingIndex {
 public:
  /// `replicas` >= 1, every count starting at 0.
  explicit LeastOutstandingIndex(int replicas);

  /// Changes replica `replica`'s count by `delta` (+1 on dispatch, -b on a
  /// completion ack for b requests); the only way a count changes.
  void Add(int replica, int64_t delta);

  /// The first replica at or after `cursor` (in [0, R)), wrapping, whose
  /// count is the fleet minimum.
  int Pick(int cursor) const;

 private:
  size_t leaves_ = 1;         // P: the power of two >= R
  std::vector<int64_t> min_;  // heap order: min_[1] root, leaves at [P, 2P)
};

}  // namespace dmlscale::serve

#endif  // DMLSCALE_SERVE_DISPATCH_INDEX_H_
