#ifndef DMLSCALE_COMMON_RANDOM_H_
#define DMLSCALE_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dmlscale {

/// SplitMix64 finalizer (Steele, Lea, Flood 2014): a bijective avalanche mix
/// of the input. Used to derive statistically independent seeds from a base
/// seed plus an index, so sub-experiments (one per node count, one per sweep
/// cell) can be evaluated in any order — or concurrently — and still draw
/// exactly the sequences a serial run would.
uint64_t SplitMix64(uint64_t x);

/// The canonical derivation: seed for sub-experiment `index` under
/// `base_seed`. Distinct indices land in distinct SplitMix64 streams
/// (golden-ratio increment), so neighbouring indices are uncorrelated.
uint64_t DeriveSeed(uint64_t base_seed, uint64_t index);

/// Deterministic, seedable PCG32 random generator (O'Neill 2014).
///
/// Used everywhere in the library instead of std::mt19937 so experiment
/// outputs are reproducible across standard library implementations.
class Pcg32 {
 public:
  /// Seeds the generator. Distinct `stream` values give independent
  /// sequences for the same seed.
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  /// Uniform 32-bit value.
  uint32_t NextUint32();

  /// Uniform in [0, bound). `bound` must be > 0. Unbiased (rejection).
  uint32_t NextBounded(uint32_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached pair).
  double NextGaussian();

  /// Exactly the maximum of the next `count` NextGaussian() values
  /// (`count` >= 1), leaving the generator (PCG state and cached half)
  /// where those `count` calls would. A cached half at entry is the first
  /// value. A pair whose Box–Muller radius sqrt(-2 ln u1) cannot exceed the
  /// running maximum is drawn but not transformed, since both of its halves
  /// are at most that radius; so a large `count` costs little more than its
  /// uniforms. An odd trailing value goes through NextGaussian(), which
  /// caches its second half.
  double NextMaxGaussian(int count);

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Log-normal multiplier with E[log X]=0; used for straggler jitter.
  double NextLogNormal(double sigma);

  /// True with probability `p`.
  bool NextBernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(static_cast<uint32_t>(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  /// Box–Muller's u1: uniform in [0, 1), redrawn while <= 1e-300 so its
  /// log is finite.
  double NextRadiusUniform();

  uint64_t state_;
  uint64_t inc_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_RANDOM_H_
