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
  /// where those `count` calls would, bit for bit.
  ///
  /// - Drawn: a cached half at entry is the first value. Each following
  ///   pair of values is one Box–Muller pair, drawn as raw 32-bit words
  ///   (k1, k2) exactly as NextGaussian() draws them. An odd trailing value
  ///   goes through NextGaussian(), which caches its second half.
  /// - Bounded: each pair's larger half lies strictly between float bounds
  ///   lo and hi read from two small constant tables, one indexed by k1's
  ///   bit length and next 6 bits (the radius), one by k2's top 10 bits
  ///   (the angle). A running floor is the largest lo so far, or an exact
  ///   value. A pair whose hi does not exceed the floor is dropped. So is
  ///   one whose k1 is so large that its radius sqrt(-2 ln u1), which
  ///   bounds both halves, is below the floor; that test is an integer
  ///   compare against a limit refreshed every 16 pairs.
  /// - Transformed: at the end (or when the 64-entry buffer of kept pairs
  ///   fills), each kept pair whose hi still exceeds the floor is
  ///   transformed exactly, by the code NextGaussian() uses, and the
  ///   largest half wins. Typically about one pair per call.
  /// - Exact: the floor never exceeds the largest value drawn so far, so
  ///   the pair holding the maximum always has hi > floor and is always
  ///   transformed. The tables' margins (1e-6 relative plus 1e-6 absolute,
  ///   rounded outward to float) dwarf the rounding of the exact transform
  ///   and of the float bound products.
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
  /// One Box–Muller pair's raw draws: k1 (u1 = k1 / 2^32), redrawn while
  /// 0 so its log is finite, then k2 (u2 = k2 / 2^32).
  std::pair<uint32_t, uint32_t> NextRawPair();

  uint64_t state_;
  uint64_t inc_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

namespace internal {

/// The larger of the two values NextGaussian() makes from the raw draws
/// (k1, k2), k1 != 0: max(mag cos 2 pi u2, mag sin 2 pi u2) with
/// mag = sqrt(-2 ln u1), computed exactly as NextGaussian() computes them.
double PairMax(uint32_t k1, uint32_t k2);

/// Float bounds with lo < PairMax(k1, k2) < hi, for k1 != 0, from the
/// tables NextMaxGaussian reads. They depend only on k1's radius bucket
/// (its bit length and the 6 bits below its top bit) and on k2's angle
/// bucket (its top 10 bits). Within each bucket the radius is monotone in
/// k1 and max(cos, sin) is monotone in k2, so the bounds at a bucket's
/// first and last members bound every member.
struct PairBounds {
  float lo;
  float hi;
};
PairBounds BoundPair(uint32_t k1, uint32_t k2);

}  // namespace internal

}  // namespace dmlscale

#endif  // DMLSCALE_COMMON_RANDOM_H_
