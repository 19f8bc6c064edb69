// The cache tier's spec: validation with actionable errors and the miss
// fraction the replicas see. The tier is declared by its hit rate; the
// serving DES and the closed form both read only hit_rate and hit_latency.

#include "serve/cache.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

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
  spec.policy = CachePolicy::kLru;
  spec.hit_rate = 0.25;
  EXPECT_EQ(spec.MissRate(), 0.75);
}

}  // namespace
}  // namespace dmlscale::serve
