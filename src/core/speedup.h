#ifndef DMLSCALE_CORE_SPEEDUP_H_
#define DMLSCALE_CORE_SPEEDUP_H_

#include <vector>

#include "common/status.h"
#include "core/superstep.h"

namespace dmlscale::core {

/// A speedup series `s(n) = t(ref) / t(n)` over a set of node counts
/// (Section III). `reference_n` is 1 for strong scaling; the paper's Fig. 3
/// uses 50.
struct SpeedupCurve {
  std::vector<int> nodes;
  std::vector<double> speedup;
  int reference_n = 1;

  /// Node count maximizing speedup: `N = argmax s(n)` (Section III).
  int OptimalNodes() const;

  /// The first interior local maximum: smallest index i with
  /// s(i-1) < s(i) > s(i+1). Staircase communication terms (e.g. Spark's
  /// ceil(sqrt(n)) waves) produce local peaks before the global argmax —
  /// the paper reads Fig. 2's "optimal number of workers is nine" off such
  /// a peak. Falls back to OptimalNodes() when the curve is unimodal.
  int FirstLocalPeak() const;

  /// Peak speedup value.
  double PeakSpeedup() const;

  /// The algorithm is scalable if some `k` has `s(k) > 1` (Section III).
  bool IsScalable() const;

  /// Parallel efficiency `s(n) * reference_n / n` per point.
  std::vector<double> Efficiency() const;

  /// Speedup at a given node count; fails if `n` is not in the series.
  [[nodiscard]] Result<double> At(int n) const;
};

/// Computes speedup curves from an `AlgorithmModel`.
class SpeedupAnalyzer {
 public:
  /// s(n) for n in [1, max_nodes] relative to t(reference_n).
  /// Fails when max_nodes < 1 or the reference time is not positive.
  [[nodiscard]] static Result<SpeedupCurve> Compute(
      const AlgorithmModel& model, int max_nodes, int reference_n = 1);

  /// s(n) over an explicit node list (must be non-empty, all >= 1).
  [[nodiscard]] static Result<SpeedupCurve> ComputeAt(
      const AlgorithmModel& model, const std::vector<int>& nodes,
      int reference_n = 1);
};

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_SPEEDUP_H_
