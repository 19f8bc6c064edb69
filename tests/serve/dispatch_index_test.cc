// The least-outstanding dispatch index against the rotated strict-min scan
// it replaced: fixed-seed sequences of dispatches, completion acks and picks
// at fleet sizes from 1 to 1024 (powers of two and padded trees alike), plus
// the tie-break's named edge cases.

#include "serve/dispatch_index.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace dmlscale::serve {
namespace {

// The serving frontend's O(R) scan, verbatim: the reference the index must
// reproduce pick for pick.
int ReferencePick(const std::vector<int64_t>& outstanding, int next_replica) {
  const int replicas = static_cast<int>(outstanding.size());
  int chosen = next_replica;
  // Strict-min scan starting at the cursor: ties go to the earliest
  // replica in rotated order, so the idle-fleet case degrades to
  // round-robin and stays deterministic.
  for (int i = 1; i < replicas; ++i) {
    int r = (next_replica + i) % replicas;
    if (outstanding[static_cast<size_t>(r)] <
        outstanding[static_cast<size_t>(chosen)]) {
      chosen = r;
    }
  }
  return chosen;
}

TEST(LeastOutstandingIndexTest, MatchesTheRotatedScanOnRandomSequences) {
  for (int replicas : {1, 2, 3, 7, 64, 989, 1024}) {
    LeastOutstandingIndex index(replicas);
    std::vector<int64_t> counts(static_cast<size_t>(replicas), 0);
    Pcg32 rng(static_cast<uint64_t>(replicas), 7);
    const auto bound = static_cast<uint32_t>(replicas);
    int cursor = 0;
    for (int step = 0; step < 20000; ++step) {
      const int pick = index.Pick(cursor);
      ASSERT_EQ(pick, ReferencePick(counts, cursor))
          << "R=" << replicas << " step=" << step << " cursor=" << cursor;
      // Dispatch to the pick half the time, the way the frontend does, so
      // counts stay level and ties stay common; otherwise bump or drain a
      // random replica.
      const int r = rng.NextBernoulli(0.5)
                        ? pick
                        : static_cast<int>(rng.NextBounded(bound));
      int64_t& count = counts[static_cast<size_t>(r)];
      int64_t delta = 1;
      if (count > 0 && rng.NextBernoulli(0.55)) {
        delta = -(1 + static_cast<int64_t>(
                          rng.NextBounded(static_cast<uint32_t>(count))));
      }
      index.Add(r, delta);
      count += delta;
      cursor = rng.NextBernoulli(0.5)
                   ? (pick + 1) % replicas
                   : static_cast<int>(rng.NextBounded(bound));
    }
  }
}

TEST(LeastOutstandingIndexTest, AllEqualFleetReturnsTheCursor) {
  for (int replicas : {1, 5, 8}) {
    LeastOutstandingIndex index(replicas);
    for (int cursor = 0; cursor < replicas; ++cursor) {
      EXPECT_EQ(index.Pick(cursor), cursor) << "R=" << replicas;
    }
    for (int r = 0; r < replicas; ++r) index.Add(r, 3);
    for (int cursor = 0; cursor < replicas; ++cursor) {
      EXPECT_EQ(index.Pick(cursor), cursor) << "R=" << replicas;
    }
  }
}

TEST(LeastOutstandingIndexTest, WrapsWhenTheOnlyMinimumIsBeforeTheCursor) {
  LeastOutstandingIndex index(7);
  for (int r = 0; r < 7; ++r) index.Add(r, r == 1 ? 1 : 2);
  EXPECT_EQ(index.Pick(4), 1);
  EXPECT_EQ(index.Pick(6), 1);
  EXPECT_EQ(index.Pick(2), 1);
  EXPECT_EQ(index.Pick(1), 1);
  EXPECT_EQ(index.Pick(0), 1);
}

TEST(LeastOutstandingIndexTest, CursorAtTheLastReplica) {
  for (int replicas : {7, 8}) {
    const int last = replicas - 1;
    LeastOutstandingIndex index(replicas);
    EXPECT_EQ(index.Pick(last), last);  // a tie: the cursor wins
    index.Add(last, 1);
    EXPECT_EQ(index.Pick(last), 0);  // wraps to the first minimum
    index.Add(0, 1);
    EXPECT_EQ(index.Pick(last), 1);
    index.Add(last, -1);
    EXPECT_EQ(index.Pick(last), last);
  }
}

}  // namespace
}  // namespace dmlscale::serve
