#ifndef DMLSCALE_COMMON_MATH_UTIL_H_
#define DMLSCALE_COMMON_MATH_UTIL_H_

#include <cstdint>
#include <vector>

namespace dmlscale {

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Population variance; 0 for fewer than 2 elements.
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double StdDev(const std::vector<double>& xs);

/// Linear-interpolated percentile, `p` in [0, 100]. Sorts a copy.
double Percentile(std::vector<double> xs, double p);

/// Sum of elements.
double Sum(const std::vector<double>& xs);

/// ceil(log2(n)) for n >= 1; 0 for n == 1.
int CeilLog2(uint64_t n);

/// ceil(sqrt(n)) computed exactly for integers.
uint64_t CeilSqrt(uint64_t n);

/// Integer ceil division a/b for b > 0.
uint64_t CeilDiv(uint64_t a, uint64_t b);

/// Gini coefficient of a non-negative sample (0 = perfectly even, →1 =
/// concentrated); used to characterize degree skew. Sorts a copy.
double Gini(std::vector<double> xs);

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_MATH_UTIL_H_
