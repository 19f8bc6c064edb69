#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace dmlscale {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t base_seed, uint64_t index) {
  return SplitMix64(base_seed + 0x9e3779b97f4a7c15ULL * index);
}

Pcg32::Pcg32(uint64_t seed, uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u) {
  NextUint32();
  state_ += seed;
  NextUint32();
}

uint32_t Pcg32::NextUint32() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint32_t Pcg32::NextBounded(uint32_t bound) {
  DMLSCALE_CHECK_GT(bound, 0u);
  // Lemire-style rejection to avoid modulo bias.
  uint32_t threshold = (-bound) % bound;
  for (;;) {
    uint32_t r = NextUint32();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::NextDouble() {
  return NextUint32() * (1.0 / 4294967296.0);
}

double Pcg32::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

std::pair<uint32_t, uint32_t> Pcg32::NextRawPair() {
  uint32_t k1 = NextUint32();
  while (k1 == 0) k1 = NextUint32();
  return {k1, NextUint32()};
}

namespace {

constexpr double kTwoToMinus32 = 1.0 / 4294967296.0;

// Box–Muller's radius sqrt(-2 ln u1) for u1 = k1 / 2^32, k1 != 0.
double Radius(uint32_t k1) {
  return std::sqrt(-2.0 * std::log(k1 * kTwoToMinus32));
}

// Box–Muller's two values from raw draws (k1, k2), k1 != 0. NextGaussian()
// returns the cosine half first and caches the sine half.
std::pair<double, double> BoxMuller(uint32_t k1, uint32_t k2) {
  const double mag = Radius(k1);
  const double u2 = k2 * kTwoToMinus32;
  return {mag * std::cos(2.0 * M_PI * u2), mag * std::sin(2.0 * M_PI * u2)};
}

float FloatBelow(double x) {
  const float f = static_cast<float>(x);
  return f > x ? std::nextafter(f, -std::numeric_limits<float>::infinity())
               : f;
}

float FloatAbove(double x) {
  const float f = static_cast<float>(x);
  return f < x ? std::nextafter(f, std::numeric_limits<float>::infinity())
               : f;
}

struct Range {
  float lo;
  float hi;
};

// Bounds on the radius per k1 bucket and on max(cos, sin) of the angle per
// k2 bucket (24 KB). Each is widened by 1e-6 (relative plus absolute for
// the radius, absolute for the angle) and rounded outward to float, which
// dwarfs the few ulps of rounding in the exact transform and the 2^-24 of
// the float products in Bound().
struct BoundTables {
  Range radius[32 * 64];
  Range angle[1024];
};

// k1's radius bucket: 64 per bit length, split by the 6 bits below the top
// bit. k1 != 0.
int RadiusBucket(uint32_t k1) {
  const int lead = std::countl_zero(k1);
  return ((31 - lead) << 6) | static_cast<int>(((k1 << lead) >> 25) & 63);
}

const BoundTables& Tables() {
  static const BoundTables tables = [] {
    constexpr double kMargin = 1e-6;
    BoundTables t{};
    for (int bits = 1; bits <= 32; ++bits) {
      for (uint32_t sub = 0; sub < 64; ++sub) {
        // Bit lengths below 7 have fewer than 6 bits under the top one, so
        // each bucket they use holds a single k1.
        const uint32_t first =
            bits >= 7 ? (64 + sub) << (bits - 7) : (64 + sub) >> (7 - bits);
        const uint32_t last =
            bits >= 7 ? first + ((uint32_t{1} << (bits - 7)) - 1) : first;
        // The radius falls as k1 grows.
        t.radius[((bits - 1) << 6) | sub] = {
            FloatBelow(Radius(last) * (1.0 - kMargin) - kMargin),
            FloatAbove(Radius(first) * (1.0 + kMargin) + kMargin)};
      }
    }
    // max(cos, sin) has its extremes at angles 0, pi/4, pi/2 and 5 pi/4,
    // all bucket edges, so it is monotone within each bucket.
    auto factor = [](int edge) {
      const double u2 = edge / 1024.0;
      return std::max(std::cos(2.0 * M_PI * u2), std::sin(2.0 * M_PI * u2));
    };
    for (int j = 0; j < 1024; ++j) {
      const double a = factor(j);
      const double b = factor(j + 1);
      t.angle[j] = {FloatBelow(std::min(a, b) - kMargin),
                    FloatAbove(std::max(a, b) + kMargin)};
    }
    return t;
  }();
  return tables;
}

internal::PairBounds Bound(const BoundTables& tables, uint32_t k1,
                           uint32_t k2) {
  const Range r = tables.radius[RadiusBucket(k1)];
  const Range a = tables.angle[k2 >> 22];
  // r.lo > 0, so over the box the largest r * a takes a.hi and the
  // smallest a.lo, each at the radius bound its sign favours.
  return {std::min(r.lo * a.lo, r.hi * a.lo),
          std::max(r.hi * a.hi, r.lo * a.hi)};
}

// A pair with k1 above this limit has radius below `floor`, so neither half
// can win: u1 > exp(-floor^2 / 2) means sqrt(-2 ln u1) < floor. The 1e-6
// margin covers rounding in exp, log and sqrt.
uint32_t SkipLimit(double floor) {
  if (!(floor > 0.0)) return std::numeric_limits<uint32_t>::max();
  const double limit =
      std::exp(-0.5 * floor * floor) * (1.0 + 1e-6) * 4294967296.0;
  return limit >= 4294967295.0 ? std::numeric_limits<uint32_t>::max()
                               : static_cast<uint32_t>(limit);
}

// Pairs kept for the exact transform before the buffer is settled early.
constexpr int kPendingCapacity = 64;
// Pairs drawn between refreshes of the skip limit.
constexpr int kLimitRefreshPairs = 16;

}  // namespace

namespace internal {

double PairMax(uint32_t k1, uint32_t k2) {
  const auto [cos_half, sin_half] = BoxMuller(k1, k2);
  return std::max(cos_half, sin_half);
}

PairBounds BoundPair(uint32_t k1, uint32_t k2) {
  return Bound(Tables(), k1, k2);
}

}  // namespace internal

double Pcg32::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  const auto [k1, k2] = NextRawPair();
  const auto [cos_half, sin_half] = BoxMuller(k1, k2);
  cached_gaussian_ = sin_half;
  has_cached_gaussian_ = true;
  return cos_half;
}

double Pcg32::NextMaxGaussian(int count) {
  DMLSCALE_CHECK_GE(count, 1);
  const BoundTables& tables = Tables();
  double best = -std::numeric_limits<double>::infinity();
  if (has_cached_gaussian_) {
    best = NextGaussian();
    --count;
  }
  // A lower bound on the largest value drawn so far: a pair's lo, or an
  // exact value.
  double floor = best;
  struct Pending {
    uint32_t k1;
    uint32_t k2;
    float hi;
  };
  Pending pending[kPendingCapacity];
  int num_pending = 0;
  // Transforms each kept pair that can still beat the floor; every exact
  // value found lifts the floor over the pairs after it.
  auto settle = [&] {
    for (int i = 0; i < num_pending; ++i) {
      if (pending[i].hi <= floor) continue;
      best = std::max(best, internal::PairMax(pending[i].k1, pending[i].k2));
      floor = std::max(floor, best);
    }
    num_pending = 0;
  };
  double limit_floor = floor;
  uint32_t limit = SkipLimit(floor);
  for (int pairs = count / 2; pairs > 0;) {
    if (floor > limit_floor) {
      limit_floor = floor;
      limit = SkipLimit(floor);
    }
    const int block = std::min(pairs, kLimitRefreshPairs);
    pairs -= block;
    for (int i = 0; i < block; ++i) {
      const auto [k1, k2] = NextRawPair();
      if (k1 > limit) continue;
      const internal::PairBounds bounds = Bound(tables, k1, k2);
      // Always written; kept only if it can still beat the floor.
      pending[num_pending] = {k1, k2, bounds.hi};
      num_pending += bounds.hi > floor;
      floor = std::max(floor, static_cast<double>(bounds.lo));
      if (num_pending == kPendingCapacity) settle();
    }
  }
  settle();
  if (count % 2 == 1) best = std::max(best, NextGaussian());
  return best;
}

double Pcg32::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Pcg32::NextLogNormal(double sigma) {
  return std::exp(sigma * NextGaussian());
}

bool Pcg32::NextBernoulli(double p) { return NextDouble() < p; }

}  // namespace dmlscale
