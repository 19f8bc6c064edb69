#include "graph/graph.h"

#include <algorithm>

#include "common/check.h"

namespace dmlscale::graph {

std::vector<int64_t> Graph::DegreeSequence() const {
  std::vector<int64_t> degrees(static_cast<size_t>(num_vertices()));
  for (VertexId v = 0; v < num_vertices(); ++v) {
    degrees[static_cast<size_t>(v)] = Degree(v);
  }
  return degrees;
}

int64_t Graph::MaxDegree() const {
  int64_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

Result<int64_t> Graph::ReverseEdgeIndex(VertexId u, VertexId v) const {
  auto nbrs = Neighbors(v);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
  if (it == nbrs.end() || *it != u) {
    return Status::NotFound("edge not present");
  }
  return offsets_[static_cast<size_t>(v)] + (it - nbrs.begin());
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : num_vertices_(num_vertices) {
  DMLSCALE_CHECK_GE(num_vertices, 0);
}

Status GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u < 0 || u >= num_vertices_ || v < 0 || v >= num_vertices_) {
    return Status::OutOfRange("vertex id out of range");
  }
  if (u == v) return Status::InvalidArgument("self-loops are not allowed");
  edges_.emplace_back(u, v);
  return Status::OK();
}

Result<Graph> GraphBuilder::Build() && {
  // Collect both directions, sort, dedup, and build CSR.
  std::vector<std::pair<VertexId, VertexId>> directed;
  directed.reserve(edges_.size() * 2);
  for (const auto& [u, v] : edges_) {
    directed.emplace_back(u, v);
    directed.emplace_back(v, u);
  }
  std::sort(directed.begin(), directed.end());
  directed.erase(std::unique(directed.begin(), directed.end()),
                 directed.end());

  std::vector<int64_t> offsets(static_cast<size_t>(num_vertices_) + 1, 0);
  for (const auto& [u, v] : directed) {
    (void)v;
    ++offsets[static_cast<size_t>(u) + 1];
  }
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<VertexId> targets;
  targets.reserve(directed.size());
  for (const auto& [u, v] : directed) {
    (void)u;
    targets.push_back(v);
  }
  return Graph(std::move(offsets), std::move(targets));
}

}  // namespace dmlscale::graph
