#include "bp/mrf.h"

#include <cmath>

namespace dmlscale::bp {

Result<PairwiseMrf> PairwiseMrf::Create(const graph::Graph* graph, int states,
                                        std::vector<double> unary,
                                        std::vector<double> pairwise) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  if (states < 2) return Status::InvalidArgument("states must be >= 2");
  size_t expected_unary = static_cast<size_t>(graph->num_vertices()) *
                          static_cast<size_t>(states);
  if (unary.size() != expected_unary) {
    return Status::InvalidArgument("unary potential size mismatch");
  }
  if (pairwise.size() != static_cast<size_t>(states) *
                             static_cast<size_t>(states)) {
    return Status::InvalidArgument("pairwise potential size mismatch");
  }
  for (double p : unary) {
    if (p <= 0.0) {
      return Status::InvalidArgument("unary potentials must be > 0");
    }
  }
  for (double p : pairwise) {
    if (p <= 0.0) {
      return Status::InvalidArgument("pairwise potentials must be > 0");
    }
  }
  return PairwiseMrf(graph, states, std::move(unary), std::move(pairwise));
}

Result<PairwiseMrf> PairwiseMrf::Random(const graph::Graph* graph, int states,
                                        double coupling, Pcg32* rng) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  if (states < 2) return Status::InvalidArgument("states must be >= 2");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  std::vector<double> unary(static_cast<size_t>(graph->num_vertices()) *
                            static_cast<size_t>(states));
  for (auto& u : unary) u = rng->NextUniform(0.5, 1.5);
  std::vector<double> pairwise(static_cast<size_t>(states) *
                               static_cast<size_t>(states));
  for (int s1 = 0; s1 < states; ++s1) {
    for (int s2 = 0; s2 < states; ++s2) {
      pairwise[static_cast<size_t>(s1) * static_cast<size_t>(states) +
               static_cast<size_t>(s2)] =
          std::exp(s1 == s2 ? coupling : -coupling);
    }
  }
  return Create(graph, states, std::move(unary), std::move(pairwise));
}

Result<std::vector<double>> BruteForceMarginals(const PairwiseMrf& mrf) {
  const graph::Graph& g = mrf.graph();
  int64_t v_count = g.num_vertices();
  int states = mrf.states();
  double cells = std::pow(static_cast<double>(states),
                          static_cast<double>(v_count));
  if (cells > 2e7) {
    return Status::InvalidArgument("graph too large for brute force");
  }
  int64_t total = static_cast<int64_t>(cells);
  std::vector<double> marginals(static_cast<size_t>(v_count) *
                                    static_cast<size_t>(states),
                                0.0);
  std::vector<int> assignment(static_cast<size_t>(v_count), 0);
  double z = 0.0;
  for (int64_t code = 0; code < total; ++code) {
    int64_t rest = code;
    for (int64_t v = 0; v < v_count; ++v) {
      assignment[static_cast<size_t>(v)] = static_cast<int>(rest % states);
      rest /= states;
    }
    double weight = 1.0;
    for (int64_t v = 0; v < v_count; ++v) {
      weight *= mrf.Unary(v, assignment[static_cast<size_t>(v)]);
      for (graph::VertexId u : g.Neighbors(v)) {
        if (u > v) {
          weight *= mrf.Pairwise(assignment[static_cast<size_t>(v)],
                                 assignment[static_cast<size_t>(u)]);
        }
      }
    }
    z += weight;
    for (int64_t v = 0; v < v_count; ++v) {
      marginals[static_cast<size_t>(v) * static_cast<size_t>(states) +
                static_cast<size_t>(assignment[static_cast<size_t>(v)])] +=
          weight;
    }
  }
  if (z <= 0.0) return Status::Internal("zero partition function");
  for (auto& m : marginals) m /= z;
  return marginals;
}

}  // namespace dmlscale::bp
