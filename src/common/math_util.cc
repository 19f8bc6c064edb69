#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace dmlscale {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Percentile(std::vector<double> xs, double p) {
  DMLSCALE_CHECK(!xs.empty());
  DMLSCALE_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

int CeilLog2(uint64_t n) {
  DMLSCALE_CHECK_GE(n, 1u);
  int bits = 0;
  uint64_t v = n - 1;
  while (v > 0) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

uint64_t CeilSqrt(uint64_t n) {
  if (n == 0) return 0;
  uint64_t r = static_cast<uint64_t>(std::sqrt(static_cast<double>(n)));
  while (r * r > n) --r;
  while ((r + 1) * (r + 1) <= n) ++r;
  return (r * r == n) ? r : r + 1;
}

uint64_t CeilDiv(uint64_t a, uint64_t b) {
  DMLSCALE_CHECK_GT(b, 0u);
  return (a + b - 1) / b;
}

double Gini(std::vector<double> xs) {
  if (xs.size() < 2) return 0.0;
  std::sort(xs.begin(), xs.end());
  double n = static_cast<double>(xs.size());
  double cum = 0.0, weighted = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    DMLSCALE_CHECK_GE(xs[i], 0.0);
    weighted += (2.0 * (static_cast<double>(i) + 1.0) - n - 1.0) * xs[i];
    cum += xs[i];
  }
  if (cum <= 0.0) return 0.0;
  return weighted / (n * cum);
}

}  // namespace dmlscale
