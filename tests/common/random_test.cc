#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/math_util.h"

namespace dmlscale {
namespace {

TEST(Pcg32Test, DeterministicForSameSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint32(), b.NextUint32());
  }
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextUint32() != b.NextUint32()) ++differences;
  }
  EXPECT_GT(differences, 24);
}

TEST(Pcg32Test, DifferentStreamsDiffer) {
  Pcg32 a(1, 1), b(1, 2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextUint32() != b.NextUint32()) ++differences;
  }
  EXPECT_GT(differences, 24);
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Pcg32Test, NextBoundedRespectsBound) {
  Pcg32 rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    uint32_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Rough uniformity: each bucket within 30% of expectation.
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(11);
  std::vector<double> samples(20000);
  for (auto& s : samples) s = rng.NextGaussian();
  EXPECT_NEAR(Mean(samples), 0.0, 0.03);
  EXPECT_NEAR(StdDev(samples), 1.0, 0.03);
}

TEST(Pcg32Test, GaussianWithParams) {
  Pcg32 rng(13);
  std::vector<double> samples(20000);
  for (auto& s : samples) s = rng.NextGaussian(5.0, 2.0);
  EXPECT_NEAR(Mean(samples), 5.0, 0.08);
  EXPECT_NEAR(StdDev(samples), 2.0, 0.08);
}

TEST(Pcg32Test, LogNormalMedianNearOne) {
  Pcg32 rng(15);
  std::vector<double> samples(20001);
  for (auto& s : samples) s = rng.NextLogNormal(0.3);
  std::sort(samples.begin(), samples.end());
  double median = samples[samples.size() / 2];
  EXPECT_NEAR(median, 1.0, 0.05);
  for (double s : samples) EXPECT_GT(s, 0.0);
}

TEST(Pcg32Test, BernoulliFrequency) {
  Pcg32 rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.02);
}

TEST(Pcg32Test, ShufflePreservesElements) {
  Pcg32 rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Pcg32Test, ShuffleActuallyPermutes) {
  Pcg32 rng(21);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = i;
  rng.Shuffle(&v);
  bool any_moved = false;
  for (int i = 0; i < 100; ++i) {
    if (v[static_cast<size_t>(i)] != i) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

// What NextMaxGaussian must equal: one NextGaussian per value.
double ExplicitMaxGaussian(Pcg32* rng, int count) {
  double best = rng->NextGaussian();
  for (int i = 1; i < count; ++i) best = std::max(best, rng->NextGaussian());
  return best;
}

TEST(Pcg32Test, MaxGaussianMatchesExplicitLoop) {
  struct Source {
    uint64_t seed;
    uint64_t stream;
  };
  const Source sources[] = {{1, 1}, {42, 7}, {0x853c49e6748fea9bULL, 54}};
  // Each source walks every third count, so together they cover 1..4097.
  int cached_entries = 0;
  int cached_exits = 0;
  for (int s = 0; s < 3; ++s) {
    Pcg32 fast(sources[s].seed, sources[s].stream);
    Pcg32 slow = fast;
    int64_t drawn = 0;  // Gaussians taken so far: odd means a cached half.
    for (int count = 1 + s; count <= 4097; count += 3) {
      cached_entries += drawn % 2 == 1;
      const double got = fast.NextMaxGaussian(count);
      const double want = ExplicitMaxGaussian(&slow, count);
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "source " << s << " count " << count;
      drawn += count;
      cached_exits += drawn % 2 == 1;
      // Every fourth call, both generators must agree on what follows:
      // the cached half (or a fresh pair) and the PCG state.
      if (count % 4 == 0) {
        ASSERT_EQ(std::bit_cast<uint64_t>(fast.NextGaussian()),
                  std::bit_cast<uint64_t>(slow.NextGaussian()))
            << "source " << s << " after count " << count;
        ++drawn;
        ASSERT_EQ(fast.NextUint32(), slow.NextUint32())
            << "source " << s << " after count " << count;
      }
    }
    EXPECT_EQ(fast.NextGaussian(), slow.NextGaussian());
    EXPECT_EQ(fast.NextUint32(), slow.NextUint32());
  }
  EXPECT_GT(cached_entries, 100);
  EXPECT_GT(cached_exits, 100);
}

// The seed whose generator makes draw number `position` (0-based) from
// state 0, which outputs 0. For a small stream the next state, inc, outputs
// 0 as well, so a draw of u1 there is redrawn twice.
uint64_t SeedWithZeroDrawAt(int position, uint64_t stream) {
  constexpr uint64_t kMultiplier = 6364136223846793005ULL;
  // Newton's iteration for the inverse mod 2^64 doubles the correct low
  // bits each step; an odd multiplier is its own inverse mod 8.
  uint64_t inverse = kMultiplier;
  for (int i = 0; i < 5; ++i) inverse *= 2 - kMultiplier * inverse;
  const uint64_t inc = (stream << 1u) | 1u;
  auto step_back = [&](uint64_t state) { return (state - inc) * inverse; };
  uint64_t state = 0;
  for (int i = 0; i < position; ++i) state = step_back(state);
  // The constructor steps from 0 to inc, adds the seed, then steps again.
  return step_back(state) - inc;
}

TEST(Pcg32Test, MaxGaussianRedrawsZeroDraws) {
  constexpr uint64_t kStream = 5;
  // Position 0 is a u1 draw, 1 a u2 draw; 2, 5 and 6 fall mid-walk.
  for (int position : {0, 1, 2, 5, 6}) {
    const uint64_t seed = SeedWithZeroDrawAt(position, kStream);
    Pcg32 probe(seed, kStream);
    for (int i = 0; i < position; ++i) probe.NextUint32();
    ASSERT_EQ(probe.NextUint32(), 0u) << "position " << position;
    ASSERT_EQ(probe.NextUint32(), 0u) << "position " << position;
    for (int count : {1, 2, 3, 7, 8}) {
      Pcg32 fast(seed, kStream);
      Pcg32 slow = fast;
      const double got = fast.NextMaxGaussian(count);
      const double want = ExplicitMaxGaussian(&slow, count);
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "position " << position << " count " << count;
      EXPECT_EQ(std::bit_cast<uint64_t>(fast.NextGaussian()),
                std::bit_cast<uint64_t>(slow.NextGaussian()))
          << "position " << position << " count " << count;
      EXPECT_EQ(fast.NextUint32(), slow.NextUint32())
          << "position " << position << " count " << count;
    }
  }
}

// The first and last k1 of every radius bucket, each once: below 128 every
// k1 has a bucket of its own; from bit length 8 up a bucket spans
// 2^(bits - 7) values.
std::vector<uint32_t> RadiusBucketCorners() {
  std::vector<uint32_t> corners;
  for (uint32_t k1 = 1; k1 < 128; ++k1) corners.push_back(k1);
  for (int bits = 8; bits <= 32; ++bits) {
    for (uint32_t sub = 0; sub < 64; ++sub) {
      const uint32_t first = (64 + sub) << (bits - 7);
      corners.push_back(first);
      corners.push_back(first + ((uint32_t{1} << (bits - 7)) - 1));
    }
  }
  return corners;
}

// The first and last k2 of every angle bucket (k2's top 10 bits).
std::vector<uint32_t> AngleBucketCorners() {
  std::vector<uint32_t> corners;
  for (uint32_t bucket = 0; bucket < 1024; ++bucket) {
    corners.push_back(bucket << 22);
    corners.push_back((bucket << 22) | ((uint32_t{1} << 22) - 1));
  }
  return corners;
}

bool SameBounds(internal::PairBounds a, internal::PairBounds b) {
  return std::bit_cast<uint32_t>(a.lo) == std::bit_cast<uint32_t>(b.lo) &&
         std::bit_cast<uint32_t>(a.hi) == std::bit_cast<uint32_t>(b.hi);
}

// Within a bucket the radius is monotone in k1 and max(cos, sin) is
// monotone in k2, so bounds that hold at every pair of bucket corners hold
// for every pair, provided the bounds depend on the buckets alone.
TEST(Pcg32Test, PairBoundsHoldAtEveryBucketCorner) {
  const std::vector<uint32_t> radius = RadiusBucketCorners();
  const std::vector<uint32_t> angle = AngleBucketCorners();
  ASSERT_EQ(radius.size() * angle.size(), 6813696u);
  int64_t violations = 0;
  for (uint32_t k1 : radius) {
    for (uint32_t k2 : angle) {
      const internal::PairBounds bounds = internal::BoundPair(k1, k2);
      const double value = internal::PairMax(k1, k2);
      if (bounds.lo < value && value < bounds.hi) continue;
      if (++violations <= 5) {
        ADD_FAILURE() << "k1 " << k1 << " k2 " << k2 << ": " << bounds.lo
                      << " < " << value << " < " << bounds.hi;
      }
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST(Pcg32Test, PairBoundsDependOnTheBucketsAlone) {
  Pcg32 rng(23);
  const std::vector<uint32_t> radius = RadiusBucketCorners();
  const std::vector<uint32_t> angle = AngleBucketCorners();
  // Both lists hold (first, last) pairs, after the 127 single-k1 radius
  // buckets.
  for (size_t i = 127; i < radius.size(); i += 2) {
    const uint32_t first = radius[i];
    const uint32_t span = radius[i + 1] - first + 1;
    const uint32_t k2 = rng.NextUint32();
    const internal::PairBounds want = internal::BoundPair(first, k2);
    for (uint32_t k1 : {radius[i + 1], first + rng.NextBounded(span)}) {
      ASSERT_TRUE(SameBounds(internal::BoundPair(k1, k2), want))
          << "k1 " << k1 << " vs " << first;
    }
  }
  for (size_t i = 0; i < angle.size(); i += 2) {
    const uint32_t k1 = rng.NextUint32() | 1u;
    const internal::PairBounds want = internal::BoundPair(k1, angle[i]);
    for (uint32_t k2 : {angle[i + 1], angle[i] + rng.NextBounded(1u << 22)}) {
      ASSERT_TRUE(SameBounds(internal::BoundPair(k1, k2), want))
          << "k2 " << k2 << " vs " << angle[i];
    }
  }
}

TEST(SplitMix64Test, IsDeterministic) {
  EXPECT_EQ(SplitMix64(0), SplitMix64(0));
  EXPECT_EQ(SplitMix64(42), SplitMix64(42));
  EXPECT_EQ(DeriveSeed(42, 7), DeriveSeed(42, 7));
}

TEST(SplitMix64Test, NeighbouringInputsAvalanche) {
  // Consecutive indices must land far apart — generators seeded from them
  // must not produce correlated leading draws.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    seen.insert(DeriveSeed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
  // Spot-check: flipping the base seed flips roughly half the output bits.
  uint64_t diff = DeriveSeed(1, 5) ^ DeriveSeed(2, 5);
  int bits = 0;
  for (; diff != 0; diff &= diff - 1) ++bits;
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

TEST(SplitMix64Test, DerivedGeneratorsAreIndependentOfEvaluationOrder) {
  // The analysis layer's contract: the draw sequence for index i depends
  // only on (base_seed, i), never on which indices were evaluated before.
  Pcg32 forward_a(DeriveSeed(9, 3), 3);
  double a = forward_a.NextDouble();
  Pcg32 other(DeriveSeed(9, 2), 2);
  (void)other.NextDouble();
  Pcg32 forward_b(DeriveSeed(9, 3), 3);
  EXPECT_EQ(a, forward_b.NextDouble());
}

}  // namespace
}  // namespace dmlscale
