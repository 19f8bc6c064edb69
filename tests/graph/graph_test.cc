#include "graph/graph.h"

#include <gtest/gtest.h>

namespace dmlscale::graph {
namespace {

Graph Triangle() {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0).ok());
  return std::move(builder).Build().value();
}

TEST(GraphBuilderTest, BuildsTriangle) {
  Graph g = Triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2);
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddEdge(1, 1).ok());
}

TEST(GraphBuilderTest, RejectsOutOfRange) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddEdge(0, 3).ok());
  EXPECT_FALSE(builder.AddEdge(-1, 0).ok());
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder builder(2);
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  EXPECT_TRUE(builder.AddEdge(1, 0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  Graph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(5);
  Graph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.MaxDegree(), 0);
}

TEST(GraphTest, NeighborsSorted) {
  GraphBuilder builder(5);
  EXPECT_TRUE(builder.AddEdge(2, 4).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3).ok());
  Graph g = std::move(builder).Build().value();
  auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 3);
  EXPECT_EQ(nbrs[2], 4);
}

TEST(GraphTest, DegreeSequenceAndMax) {
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2).ok());
  EXPECT_TRUE(builder.AddEdge(0, 3).ok());
  Graph g = std::move(builder).Build().value();
  auto degrees = g.DegreeSequence();
  EXPECT_EQ(degrees, (std::vector<int64_t>{3, 1, 1, 1}));
  EXPECT_EQ(g.MaxDegree(), 3);
}

TEST(GraphTest, ReverseEdgeIndexRoundTrip) {
  Graph g = Triangle();
  for (VertexId u = 0; u < 3; ++u) {
    auto nbrs = g.Neighbors(u);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      int64_t e = g.DirectedEdgeIndex(u, static_cast<int64_t>(k));
      auto rev = g.ReverseEdgeIndex(u, nbrs[k]);
      ASSERT_TRUE(rev.ok());
      // The reverse of the reverse is the original edge.
      VertexId v = nbrs[k];
      auto vnbrs = g.Neighbors(v);
      int64_t back = -1;
      for (size_t j = 0; j < vnbrs.size(); ++j) {
        if (g.DirectedEdgeIndex(v, static_cast<int64_t>(j)) == rev.value()) {
          EXPECT_EQ(vnbrs[j], u);
          back = g.ReverseEdgeIndex(v, vnbrs[j]).value();
        }
      }
      EXPECT_EQ(back, e);
    }
  }
}

TEST(GraphTest, ReverseEdgeIndexMissingEdge) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  Graph g = std::move(builder).Build().value();
  EXPECT_FALSE(g.ReverseEdgeIndex(0, 2).ok());
}

TEST(GraphTest, DirectedEdgeIndicesAreDense) {
  Graph g = Triangle();
  std::vector<bool> seen(static_cast<size_t>(2 * g.num_edges()), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int64_t k = 0; k < g.Degree(v); ++k) {
      int64_t e = g.DirectedEdgeIndex(v, k);
      ASSERT_GE(e, 0);
      ASSERT_LT(e, 2 * g.num_edges());
      EXPECT_FALSE(seen[static_cast<size_t>(e)]);
      seen[static_cast<size_t>(e)] = true;
    }
  }
}

}  // namespace
}  // namespace dmlscale::graph
