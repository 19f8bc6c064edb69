// The cache tier: spec validation with actionable errors, the executable
// LRU/LFU eviction orders (ties broken by touch sequence, so the tier is
// fully deterministic), and hit-rate accounting grounding a declared
// hit_rate against a skewed trace.

#include "serve/cache.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"

namespace dmlscale::serve {
namespace {

TEST(CacheSpecTest, HitRateWithoutAPolicyIsRejectedActionably) {
  CacheSpec spec;
  spec.hit_rate = 0.5;
  Status status = spec.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("lru"), std::string::npos);
  EXPECT_NE(status.message().find("hit_rate"), std::string::npos);
}

TEST(CacheSpecTest, HitRateMustLeaveABackend) {
  CacheSpec spec;
  spec.policy = CachePolicy::kLru;
  spec.hit_rate = 1.0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.hit_rate = 0.999;
  EXPECT_TRUE(spec.Validate().ok());
  // NaN slips through a plain range check; it and +inf must name the key.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    CacheSpec rate = spec;
    rate.hit_rate = bad;
    EXPECT_EQ(rate.Validate().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(rate.Validate().message().find("hit_rate"), std::string::npos)
        << bad;
    CacheSpec latency = spec;
    latency.hit_latency_s = bad;
    EXPECT_EQ(latency.Validate().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(latency.Validate().message().find("hit_latency"),
              std::string::npos)
        << bad;
  }
}

TEST(CacheSpecTest, MissRateIsOneWithoutACache) {
  CacheSpec spec;
  EXPECT_EQ(spec.MissRate(), 1.0);
  spec.policy = CachePolicy::kLfu;
  spec.hit_rate = 0.25;
  EXPECT_EQ(spec.MissRate(), 0.75);
}

TEST(CacheTierTest, LruEvictsTheLeastRecentlyUsed) {
  CacheTier cache(CachePolicy::kLru, 2);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_FALSE(cache.Access(2));
  EXPECT_TRUE(cache.Access(1));   // 2 is now the LRU entry
  EXPECT_FALSE(cache.Access(3));  // evicts 2
  EXPECT_FALSE(cache.Access(2));
  EXPECT_TRUE(cache.Access(3));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(CacheTierTest, LfuEvictsTheLeastFrequentlyUsedOldestFirst) {
  CacheTier cache(CachePolicy::kLfu, 2);
  cache.Access(1);
  cache.Access(1);                // key 1: frequency 2
  cache.Access(2);                // key 2: frequency 1
  EXPECT_FALSE(cache.Access(3));  // evicts 2 (lowest frequency)
  EXPECT_TRUE(cache.Access(1));
  EXPECT_FALSE(cache.Access(2));  // 3 and 2 tie at frequency 1; 3 is older
  EXPECT_FALSE(cache.Access(3));
}

TEST(CacheTierTest, SkewedTraceGroundsADeclaredHitRate) {
  // 80% of accesses go to 4 hot keys, 20% to a 1000-key cold tail. A
  // 16-entry LRU holds the hot set, so the achieved hit rate approaches
  // the hot fraction — the check a CacheSpec::hit_rate declaration rests
  // on.
  CacheTier cache(CachePolicy::kLru, 16);
  Pcg32 rng(99, 1);
  for (int i = 0; i < 20000; ++i) {
    int64_t key = rng.NextBernoulli(0.8)
                      ? static_cast<int64_t>(rng.NextUint32() % 4)
                      : 4 + static_cast<int64_t>(rng.NextUint32() % 1000);
    cache.Access(key);
  }
  EXPECT_GT(cache.HitRate(), 0.75);
  EXPECT_LT(cache.HitRate(), 0.85);
}

TEST(CacheTierTest, AccessSequenceIsDeterministic) {
  auto run = [] {
    CacheTier cache(CachePolicy::kLfu, 8);
    Pcg32 rng(7, 2);
    uint64_t signature = 0;
    for (int i = 0; i < 5000; ++i) {
      int64_t key = static_cast<int64_t>(rng.NextUint32() % 64);
      signature = signature * 2 + (cache.Access(key) ? 1 : 0);
    }
    return signature ^ cache.hits();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dmlscale::serve
