// The least-outstanding dispatch index against the rotated strict-min scan
// it replaced: fixed-seed sequences of dispatches, completion acks and picks
// at fleet sizes from 1 to 8257 (either side of the 64-replica word edge, the
// planner's default max_replicas of 4096 and the 4096-replica edge past it),
// a deep climb and drain of every count, plus the tie-break's named edge
// cases.

#include "serve/dispatch_index.h"

#include <algorithm>
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
  for (int replicas : {1, 2, 3, 7, 63, 64, 65, 989, 1024, 4096, 4097, 8257}) {
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

// Every count climbs into the hundreds and drains back to zero. Dispatch
// raises the pick, and occasional jumps leave empty counts between replicas,
// so the lowest occupied count has to move up past gaps on the climb and
// down on the drain.
TEST(LeastOutstandingIndexTest, MatchesTheRotatedScanThroughDeepCounts) {
  constexpr int kReplicas = 70;
  LeastOutstandingIndex index(kReplicas);
  std::vector<int64_t> counts(kReplicas, 0);
  Pcg32 rng(11, 3);
  int cursor = 0;
  auto check_pick = [&](const char* phase, int step) {
    const int pick = index.Pick(cursor);
    EXPECT_EQ(pick, ReferencePick(counts, cursor))
        << phase << " step=" << step << " cursor=" << cursor;
    return pick;
  };
  for (int step = 0; step < 300 * kReplicas; ++step) {
    const int pick = check_pick("climb", step);
    int r = pick;
    int64_t delta = 1;
    if (rng.NextBernoulli(0.05)) {
      r = static_cast<int>(rng.NextBounded(kReplicas));
      delta = 1 + static_cast<int64_t>(rng.NextBounded(40));
    }
    index.Add(r, delta);
    counts[static_cast<size_t>(r)] += delta;
    cursor = (pick + 1) % kReplicas;
  }
  EXPECT_GT(*std::min_element(counts.begin(), counts.end()), 200);
  for (int step = 0;; ++step) {
    std::vector<int> busy;
    for (int r = 0; r < kReplicas; ++r) {
      if (counts[static_cast<size_t>(r)] > 0) busy.push_back(r);
    }
    if (busy.empty()) break;
    const int r = busy[rng.NextBounded(static_cast<uint32_t>(busy.size()))];
    int64_t& count = counts[static_cast<size_t>(r)];
    const int64_t drained =
        1 + static_cast<int64_t>(rng.NextBounded(
                static_cast<uint32_t>(std::min<int64_t>(count, 12))));
    index.Add(r, -drained);
    count -= drained;
    cursor = static_cast<int>(rng.NextBounded(kReplicas));
    check_pick("drain", step);
  }
  for (int c = 0; c < kReplicas; ++c) EXPECT_EQ(index.Pick(c), c);
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
