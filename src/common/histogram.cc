#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dmlscale {

Histogram::Histogram(const Options& options) : options_(options) {
  DMLSCALE_CHECK_GT(options_.min_value, 0.0);
  DMLSCALE_CHECK_GT(options_.max_value, options_.min_value);
  DMLSCALE_CHECK_GE(options_.bins_per_decade, 1);
  double decades = std::log10(options_.max_value / options_.min_value);
  size_t finite_bins = static_cast<size_t>(
      std::ceil(decades * static_cast<double>(options_.bins_per_decade)));
  // bins_[0] is underflow, bins_.back() is overflow.
  bins_.assign(finite_bins + 2, 0);
}

size_t Histogram::BinIndex(double value) const {
  if (!(value >= options_.min_value)) return 0;
  if (value >= options_.max_value) return bins_.size() - 1;
  double offset = std::log10(value / options_.min_value) *
                  static_cast<double>(options_.bins_per_decade);
  size_t index = 1 + static_cast<size_t>(offset);
  // log10 rounding at the exact upper edge could land one past the last
  // finite bin; clamp into it.
  return std::min(index, bins_.size() - 2);
}

double Histogram::BinRepresentative(size_t index) const {
  if (index == 0) return options_.min_value;
  if (index == bins_.size() - 1) return options_.max_value;
  double inv_bpd = 1.0 / static_cast<double>(options_.bins_per_decade);
  double lo = options_.min_value *
              std::pow(10.0, static_cast<double>(index - 1) * inv_bpd);
  double hi = options_.min_value *
              std::pow(10.0, static_cast<double>(index) * inv_bpd);
  return std::sqrt(lo * hi);
}

void Histogram::Add(double value) {
  bins_[BinIndex(value)] += 1;
  count_ += 1;
  sum_ += value;
}

void Histogram::Merge(const Histogram& other) {
  DMLSCALE_CHECK_EQ(bins_.size(), other.bins_.size());
  DMLSCALE_CHECK_EQ(options_.min_value, other.options_.min_value);
  DMLSCALE_CHECK_EQ(options_.max_value, other.options_.max_value);
  DMLSCALE_CHECK_EQ(options_.bins_per_decade, other.options_.bins_per_decade);
  for (size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  DMLSCALE_CHECK_GE(p, 0.0);
  DMLSCALE_CHECK_LE(p, 1.0);
  if (count_ == 0) return 0.0;
  // Nearest rank, 1-based: ceil(p * count), clamped to [1, count].
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  rank = std::max<uint64_t>(rank, 1);
  rank = std::min(rank, count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bins_.size(); ++i) {
    cumulative += bins_[i];
    if (cumulative >= rank) return BinRepresentative(i);
  }
  return BinRepresentative(bins_.size() - 1);
}

double ExactPercentile(std::vector<double> values, double p) {
  DMLSCALE_CHECK(!values.empty());
  DMLSCALE_CHECK_GE(p, 0.0);
  DMLSCALE_CHECK_LE(p, 1.0);
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::max<size_t>(rank, 1);
  rank = std::min(rank, values.size());
  return values[rank - 1];
}

}  // namespace dmlscale
