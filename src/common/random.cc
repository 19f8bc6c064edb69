#include "common/random.h"

#include <algorithm>
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

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
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

double Pcg32::NextRadiusUniform() {
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  return u1;
}

double Pcg32::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextRadiusUniform();
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Pcg32::NextMaxGaussian(int count) {
  DMLSCALE_CHECK_GE(count, 1);
  double best = -std::numeric_limits<double>::infinity();
  // A pair with u1 > skip_above has radius < best, so neither half can
  // win. u1 < 1 always, so the initial 1 skips nothing. The 1e-9 margin
  // covers rounding in exp, log and sqrt: the computed radius of a
  // skipped pair would still be below best.
  double skip_above = 1.0;
  auto offer = [&](double value) {
    if (value <= best) return;
    best = value;
    if (best > 0.0) skip_above = std::exp(-0.5 * best * best) * (1.0 + 1e-9);
  };
  if (has_cached_gaussian_) {
    offer(NextGaussian());
    --count;
  }
  for (; count >= 2; count -= 2) {
    const double u1 = NextRadiusUniform();
    const double u2 = NextDouble();
    if (u1 > skip_above) continue;
    // Both halves are the radius times a sine or cosine, so neither
    // exceeds the computed radius.
    const double mag = std::sqrt(-2.0 * std::log(u1));
    if (mag <= best) continue;
    offer(std::max(mag * std::cos(2.0 * M_PI * u2),
                   mag * std::sin(2.0 * M_PI * u2)));
  }
  if (count == 1) offer(NextGaussian());
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
