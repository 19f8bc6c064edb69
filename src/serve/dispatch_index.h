#ifndef DMLSCALE_SERVE_DISPATCH_INDEX_H_
#define DMLSCALE_SERVE_DISPATCH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmlscale::serve {

/// Least-outstanding dispatch from per-count replica bitsets, owned by the
/// serving frontend. A replica's count is its requests sent minus
/// completions heard back; level c is the bitset of replicas whose count is
/// c, with a summary bit per word marking the words that hold a replica.
/// `Add` moves one replica's bit between two levels. `Pick` reads the
/// cursor's word of the lowest non-empty level and, if nothing at or after
/// the cursor is there, the summary's next occupied word: a few word reads,
/// plus one summary word per 4096 replicas beyond the first.
///
/// Tie-break contract: Pick(cursor) returns the replica holding the minimum
/// count that comes first in the rotated order cursor, cursor + 1, ...,
/// R - 1, 0, ..., cursor - 1 — exactly what a strict-min scan starting at
/// the cursor picks. An all-idle fleet therefore degrades to round-robin
/// when the caller advances the cursor past each pick.
///
/// Memory: ceil(R / 64) words, ceil(R / 4096) summary words and one
/// population count per level, up to the highest count reached. Dispatch
/// raises a count only at the fleet minimum (or in strict rotation), so the
/// top count stays at most outstanding / R + 1: about one bit per
/// outstanding request.
class LeastOutstandingIndex {
 public:
  /// `replicas` >= 1, every count starting at 0.
  explicit LeastOutstandingIndex(int replicas);

  /// Changes replica `replica`'s count by `delta` (+1 on dispatch, -b on a
  /// completion ack for b requests); the only way a count changes. A count
  /// never goes negative.
  void Add(int replica, int64_t delta);

  /// The first replica at or after `cursor` (in [0, R)), wrapping, whose
  /// count is the fleet minimum.
  int Pick(int cursor) const;

 private:
  std::vector<int64_t> count_;  // per replica
  // Level c of a flat per-level array is [c * words, (c + 1) * words).
  std::vector<uint64_t> members_;   // bit r: replica r has count c
  std::vector<uint64_t> occupied_;  // bit w: members_ word w is non-zero
  size_t words_ = 1;                // members_ words per level
  size_t occupied_words_ = 1;       // occupied_ words per level
  std::vector<int> level_size_;     // replicas per level
  size_t least_ = 0;                // the lowest non-empty level
};

}  // namespace dmlscale::serve

#endif  // DMLSCALE_SERVE_DISPATCH_INDEX_H_
