#ifndef DMLSCALE_MODELS_GRAPHICAL_INFERENCE_H_
#define DMLSCALE_MODELS_GRAPHICAL_INFERENCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace dmlscale::models {

/// Inputs of the graphical-inference model (Sections IV-B, V-B): vertices
/// of a pairwise MRF are processed in parallel by `n` workers; the slowest
/// worker (most edges) bounds the superstep. The model itself is an
/// api::Scenario: tcp = max_i(E_i) * c(S) / F through
/// Scenario::Builder::Compute(fn), and tcm free in shared memory or
/// (bits/B) * r * V * S through the "fixed-volume" collective.

/// Operation count of one belief-propagation edge update with `S` variable
/// states: `c(S) = S + 2 * (S + S^2)` (Section V-B).
double BpOperationsPerEdge(int states);

/// The expected number of edges counted twice on one worker under random
/// vertex assignment (Section IV-B):
///   Edup = 1/2 * (V/n - 1) * (V/n) * E / (V * (V - 1) / 2)
double AnalyticDuplicateEdges(double num_vertices, double num_edges, int n);

/// Result of the Monte-Carlo-like estimation of per-worker edge counts
/// (Section IV-B).
struct EdgeBalance {
  /// Estimated `max_i(E_i)`, the per-superstep bottleneck.
  double max_edges = 0.0;
  /// Mean `E_i` across workers; max/mean is the imbalance ratio.
  double mean_edges = 0.0;
};

/// Estimates `max_i(E_i)` by repeatedly assigning each vertex to a uniformly
/// random worker and summing degrees, then subtracting the analytic
/// duplicate-edge correction (Section IV-B). `degrees` is the full degree
/// sequence; results average over `trials` assignments.
Result<EdgeBalance> MonteCarloEdgeBalance(const std::vector<int64_t>& degrees,
                                          int n, int trials, Pcg32* rng);

/// Memoizing wrapper that evaluates the Monte-Carlo estimator once per node
/// count. Returns `max_i(E_i)` as a function of n, which scaled by c(S) is
/// the per-worker work a Scenario::Builder::Compute(fn) scenario takes. The
/// degree sequence is copied; the RNG seed makes results reproducible.
std::function<double(int)> MemoizedMonteCarloMaxEdges(
    std::vector<int64_t> degrees, int trials, uint64_t seed);

}  // namespace dmlscale::models

#endif  // DMLSCALE_MODELS_GRAPHICAL_INFERENCE_H_
