#ifndef DMLSCALE_COMMON_HISTOGRAM_H_
#define DMLSCALE_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmlscale {

/// Deterministic log-binned histogram for latency-style positive samples.
///
/// Geometry: `bins_per_decade` bins per power of ten between `min_value`
/// and `max_value`, plus an underflow bin (values < min_value) and an
/// overflow bin (values >= max_value). The bin index of a sample depends
/// only on the sample and the geometry — never on insertion order — and
/// Merge() adds integer counts, so merging per-shard histograms in node
/// order yields a histogram bit-identical to the serial run's. That is the
/// property the serving simulator leans on: p50/p95/p99 of a 1-shard and an
/// 8-shard run compare with EXPECT_EQ.
///
/// Percentile() answers with the geometric midpoint of the bin holding the
/// nearest-rank sample, so quantile error is bounded by the bin width
/// (about 4.7% at 50 bins/decade). When exact order statistics are needed
/// (golden tests, small samples), use ExactPercentile() below instead.
class Histogram {
 public:
  struct Options {
    /// Lower edge of the first finite bin. Samples below land in the
    /// underflow bin and report as `min_value`.
    double min_value = 1e-6;
    /// Upper edge of the last finite bin. Samples at or above land in the
    /// overflow bin and report as `max_value`.
    double max_value = 1e4;
    /// Resolution: relative bin width is 10^(1/bins_per_decade) - 1.
    int bins_per_decade = 50;
  };

  Histogram() : Histogram(Options{}) {}
  explicit Histogram(const Options& options);

  /// Records one sample. Negative samples count as underflow.
  void Add(double value);

  /// Adds `other`'s counts into this histogram. Both must share the same
  /// geometry (checked). Commutative and associative, so any merge order —
  /// serial, tree, per-shard — produces identical counts.
  void Merge(const Histogram& other);

  /// Total samples recorded (including under/overflow).
  uint64_t count() const { return count_; }

  /// Exact arithmetic mean of the recorded samples (running sum, not a
  /// bin approximation). 0 when empty.
  double Mean() const;

  /// Nearest-rank p-quantile, `p` in [0, 1]: the geometric midpoint of the
  /// bin containing sample number ceil(p * count) (1-based, ascending).
  /// Underflow reports min_value, overflow max_value. 0 when empty.
  double Percentile(double p) const;

  const Options& options() const { return options_; }
  const std::vector<uint64_t>& bins() const { return bins_; }

 private:
  size_t BinIndex(double value) const;
  double BinRepresentative(size_t index) const;

  Options options_;
  std::vector<uint64_t> bins_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Exact nearest-rank percentile of a sample set: sorts a copy and returns
/// element ceil(p * n) (1-based). `values` must be non-empty, `p` in [0, 1].
double ExactPercentile(std::vector<double> values, double p);

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_HISTOGRAM_H_
