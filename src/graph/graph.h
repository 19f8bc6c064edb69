#ifndef DMLSCALE_GRAPH_GRAPH_H_
#define DMLSCALE_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dmlscale::graph {

using VertexId = int64_t;

/// Immutable undirected graph in compressed sparse row form. Every edge
/// {u, v} appears in both adjacency lists; self-loops are not allowed and
/// parallel edges are deduplicated by the builder.
class Graph {
 public:
  /// Number of vertices.
  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.size()) - 1;
  }

  /// Number of undirected edges.
  int64_t num_edges() const {
    return static_cast<int64_t>(targets_.size()) / 2;
  }

  /// Degree of `v`.
  int64_t Degree(VertexId v) const {
    return offsets_[static_cast<size_t>(v) + 1] -
           offsets_[static_cast<size_t>(v)];
  }

  /// Neighbors of `v` in ascending order.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return std::span<const VertexId>(
        targets_.data() + offsets_[static_cast<size_t>(v)],
        static_cast<size_t>(Degree(v)));
  }

  /// Full degree sequence (used by the Monte-Carlo edge-balance estimator).
  std::vector<int64_t> DegreeSequence() const;

  /// Largest degree; 0 for an edgeless graph.
  int64_t MaxDegree() const;

  /// Directed-edge index of (v -> its k-th neighbor); dense in
  /// [0, 2*num_edges). Useful for message arrays in belief propagation.
  int64_t DirectedEdgeIndex(VertexId v, int64_t k) const {
    return offsets_[static_cast<size_t>(v)] + k;
  }

  /// Index of the reverse directed edge of (u -> v); fails if absent.
  Result<int64_t> ReverseEdgeIndex(VertexId u, VertexId v) const;

 private:
  friend class GraphBuilder;
  Graph(std::vector<int64_t> offsets, std::vector<VertexId> targets)
      : offsets_(std::move(offsets)), targets_(std::move(targets)) {}

  std::vector<int64_t> offsets_;   // size V+1
  std::vector<VertexId> targets_;  // size 2E, sorted per vertex
};

/// Accumulates edges and produces a `Graph`.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices);

  /// Adds the undirected edge {u, v}. Self-loops are rejected; duplicates
  /// are removed at Build() time.
  Status AddEdge(VertexId u, VertexId v);

  /// Number of edges added so far (before deduplication).
  int64_t num_pending_edges() const {
    return static_cast<int64_t>(edges_.size());
  }

  /// Builds the CSR graph, sorting and deduplicating adjacency lists.
  Result<Graph> Build() &&;

 private:
  VertexId num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace dmlscale::graph

#endif  // DMLSCALE_GRAPH_GRAPH_H_
