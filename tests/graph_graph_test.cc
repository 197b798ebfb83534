#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/subgraph.h"
#include "graph/views.h"
#include "test_util.h"
#include "util/random.h"

namespace mce {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_EQ(g.Density(), 0.0);
}

TEST(GraphBuilderTest, BuildsTriangle) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 2u);
}

TEST(GraphBuilderTest, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b;
  b.AddEdge(0, 0);  // self-loop dropped
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate (reversed)
  b.AddEdge(0, 1);  // duplicate
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, ReserveNodesCreatesIsolatedNodes) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.ReserveNodes(5);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_TRUE(g.Neighbors(4).empty());
}

TEST(GraphBuilderTest, NodeCountCoversLargestEndpoint) {
  GraphBuilder b;
  b.AddEdge(2, 9);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.Degree(0), 0u);
}

TEST(GraphBuilderTest, BuilderIsReusableAfterBuild) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g1 = b.Build();
  EXPECT_EQ(g1.num_edges(), 1u);
  b.AddEdge(0, 2);
  Graph g2 = b.Build();
  EXPECT_EQ(g2.num_edges(), 1u);
  EXPECT_EQ(g2.num_nodes(), 3u);
  EXPECT_TRUE(g2.HasEdge(0, 2));
  EXPECT_FALSE(g2.HasEdge(0, 1));
}

TEST(GraphTest, NeighborsAreSortedAndDuplicateFree) {
  GraphBuilder b;
  b.AddEdge(3, 1);
  b.AddEdge(3, 7);
  b.AddEdge(3, 0);
  b.AddEdge(3, 5);
  Graph g = b.Build();
  auto nbrs = g.Neighbors(3);
  std::vector<NodeId> v(nbrs.begin(), nbrs.end());
  EXPECT_EQ(v, (std::vector<NodeId>{0, 1, 5, 7}));
}

TEST(GraphTest, DensityOfCompleteGraphIsOne) {
  GraphBuilder b;
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = i + 1; j < 5; ++j) b.AddEdge(i, j);
  }
  Graph g = b.Build();
  EXPECT_DOUBLE_EQ(g.Density(), 1.0);
}

TEST(GraphTest, Figure1Degrees) {
  using namespace mce::test;
  Graph g = Figure1Graph();
  EXPECT_EQ(g.num_nodes(), static_cast<NodeId>(kFig1Nodes));
  EXPECT_EQ(g.Degree(D), 7u);
  EXPECT_EQ(g.Degree(S), 5u);
  EXPECT_EQ(g.Degree(E), 5u);
  EXPECT_EQ(g.Degree(H), 4u);
  EXPECT_EQ(g.MaxDegree(), 7u);
}

TEST(InduceTest, MapsIdsAndKeepsEdges) {
  using namespace mce::test;
  Graph g = Figure1Graph();
  // Induce on the hub nodes {D, S, E}: should be the triangle.
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{S, D, E});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  // to_parent is ascending.
  EXPECT_EQ(sub.to_parent, (std::vector<NodeId>{D, E, S}));
  // Translate back.
  std::vector<NodeId> parents = ToParentIds(sub, std::vector<NodeId>{0, 2});
  EXPECT_EQ(parents, (std::vector<NodeId>{D, S}));
}

TEST(InduceTest, DeduplicatesInputNodes) {
  Graph g = test::PathGraph(4);
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{2, 1, 2, 1});
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
}

TEST(InduceTest, EmptySelection) {
  Graph g = test::PathGraph(4);
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{});
  EXPECT_EQ(sub.graph.num_nodes(), 0u);
  EXPECT_TRUE(sub.to_parent.empty());
}

TEST(InduceTest, DropsEdgesToOutsiders) {
  Graph g = test::StarGraph(5);
  InducedSubgraph sub = Induce(g, std::vector<NodeId>{1, 2, 3});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);  // leaves are pairwise non-adjacent
}

/// Checks `sub` against an O(k^2) HasEdge reference for the subgraph of `g`
/// induced by `nodes`: ascending to_parent, and each local row exactly the
/// ascending local ids of the member's parent neighbors.
void ExpectInducedMatchesNaive(const Graph& g, const InducedSubgraph& sub,
                               std::vector<NodeId> nodes,
                               const std::string& label) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  ASSERT_EQ(sub.to_parent, nodes) << label;
  ASSERT_EQ(sub.graph.num_nodes(), nodes.size()) << label;
  for (NodeId i = 0; i < nodes.size(); ++i) {
    std::vector<NodeId> want;
    for (NodeId j = 0; j < nodes.size(); ++j) {
      if (j != i && g.HasEdge(nodes[i], nodes[j])) want.push_back(j);
    }
    const auto row = sub.graph.Neighbors(i);
    ASSERT_EQ(std::vector<NodeId>(row.begin(), row.end()), want)
        << label << " local row " << i;
  }
}

/// Runs both Induce overloads on `nodes` (the slot overload on its sorted,
/// de-duplicated form) against the reference, and checks that the slot
/// scratch is all-empty again afterwards.
void ExpectBothInducesMatchNaive(const Graph& g, InduceScratch* scratch,
                                 const std::vector<NodeId>& nodes,
                                 const std::string& label) {
  ExpectInducedMatchesNaive(g, Induce(g, nodes), nodes, label + " merge");
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  ExpectInducedMatchesNaive(g, Induce(g, sorted, scratch), nodes,
                            label + " slots");
  EXPECT_TRUE(std::all_of(scratch->slot.begin(), scratch->slot.end(),
                          [](NodeId s) { return s == kEmptySlot; }))
      << label << ": slot scratch not restored";
}

/// Sparse random graph over n nodes plus `hubs` nodes adjacent to all
/// others, so hub rows are far longer than any small member list.
Graph HubHeavyGraph(NodeId n, NodeId hubs, Rng* rng) {
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (int e = 0; e < 2; ++e) {
      const NodeId w = static_cast<NodeId>(rng->NextBounded(n));
      if (w != v) b.AddEdge(v, w);
    }
  }
  for (NodeId h = 0; h < hubs; ++h) {
    for (NodeId v = 0; v < n; ++v) {
      if (v != h) b.AddEdge(h, v);
    }
  }
  return b.Build();
}

// Budgeted runs charge an induced level graph's ResidentBytes(), which
// counts vector capacity: both overloads must hand over exactly sized CSR
// arrays, not the growth slack of their staging buffers.
TEST(InduceTest, ResidentBytesAreExactlyTheCsr) {
  Rng rng(17);
  const Graph g = HubHeavyGraph(400, 2, &rng);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); v += 3) nodes.push_back(v);
  InduceScratch scratch(g.num_nodes());
  for (const InducedSubgraph& sub :
       {Induce(g, nodes), Induce(g, nodes, &scratch)}) {
    const uint64_t n = sub.graph.num_nodes();
    const uint64_t m = sub.graph.num_edges();
    ASSERT_GT(m, 0u);
    EXPECT_EQ(sub.graph.ResidentBytes(), (n + 1) * 8 + 2 * m * 4);
  }
}

TEST(InduceTest, BothPathsMatchNaiveReference) {
  Rng rng(13);
  const NodeId n = 2000;
  const Graph g = HubHeavyGraph(n, 3, &rng);
  InduceScratch scratch(g.num_nodes());
  auto random_subset = [&](size_t k) {
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < k; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.NextBounded(n)));
    }
    return nodes;
  };

  ExpectBothInducesMatchNaive(g, &scratch, {}, "empty");
  ExpectBothInducesMatchNaive(g, &scratch, {7}, "single");
  ExpectBothInducesMatchNaive(g, &scratch, {0}, "single hub");
  ExpectBothInducesMatchNaive(g, &scratch, {40, 3, 40, 1, 0, 3, 2, 40},
                              "unsorted with duplicates");
  // Rows >> k: hub rows of degree n-1 against a handful of members.
  std::vector<NodeId> hubs_and_few = random_subset(6);
  hubs_and_few.insert(hubs_and_few.end(), {0, 1, 2});
  ExpectBothInducesMatchNaive(g, &scratch, hubs_and_few, "hubs + 6");
  // k >> rows: most of the graph against degree-~4 rows.
  std::vector<NodeId> many;
  for (NodeId v = 3; v < n; v += 2) many.push_back(v);
  ExpectBothInducesMatchNaive(g, &scratch, many, "half, no hubs");
  // Comparable lengths: linear merges, with and without the hubs.
  ExpectBothInducesMatchNaive(g, &scratch, random_subset(30), "random 30");
  std::vector<NodeId> mid = random_subset(200);
  mid.push_back(1);
  ExpectBothInducesMatchNaive(g, &scratch, mid, "random 200 + hub");

  // The whole-graph induce reproduces the graph itself.
  std::vector<NodeId> whole(n);
  for (NodeId v = 0; v < n; ++v) whole[v] = v;
  EXPECT_TRUE(Induce(g, whole).graph == g);
  EXPECT_TRUE(Induce(g, whole, &scratch).graph == g);
  const Graph small = test::Figure1Graph();
  InduceScratch small_scratch(small.num_nodes());
  std::vector<NodeId> all_small(small.num_nodes());
  for (NodeId v = 0; v < small.num_nodes(); ++v) all_small[v] = v;
  ExpectBothInducesMatchNaive(small, &small_scratch, all_small, "whole fig1");
}

TEST(InduceTest, SlotOverloadAcceptsCallerMarksOnMembers) {
  // A caller may leave its own non-empty marks on the members it induces
  // (BLOCKS marks block membership that way); the result ignores them and
  // the call clears them.
  const Graph g = test::Figure1Graph();
  InduceScratch scratch(g.num_nodes());
  const std::vector<NodeId> members{1, 2, 5, 9};
  for (NodeId v : members) scratch.slot[v] = 0;
  ExpectInducedMatchesNaive(g, Induce(g, members, &scratch), members,
                            "premarked");
  EXPECT_TRUE(std::all_of(scratch.slot.begin(), scratch.slot.end(),
                          [](NodeId s) { return s == kEmptySlot; }));
}

TEST(ViewsTest, MatrixMatchesGraph) {
  Graph g = test::Figure1Graph();
  AdjacencyMatrix m(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(m.Adjacent(u, v), g.HasEdge(u, v)) << u << "," << v;
    }
  }
}

TEST(ViewsTest, BitsetGraphMatchesGraph) {
  Graph g = test::Figure1Graph();
  BitsetGraph bg(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(bg.Row(u).Count(), g.Degree(u));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(bg.Adjacent(u, v), g.HasEdge(u, v)) << u << "," << v;
    }
  }
}

TEST(GraphTest, EqualityOperator) {
  Graph a = test::PathGraph(4);
  Graph b = test::PathGraph(4);
  Graph c = test::CycleGraph(4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace mce
