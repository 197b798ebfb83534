// Tests for the graph-reduction prepass (src/reduce): rule-level unit
// tests on hand-built graphs, the re-expansion leak check, workspace
// reuse, the degeneracy relabeling of blocks, and the end-to-end property
// that the reduced pipeline emits exactly the unreduced clique set across
// generators, block bounds, executors, and thread counts.

#include "reduce/reduction.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "decomp/blocks.h"
#include "decomp/cut.h"
#include "decomp/find_max_cliques.h"
#include "gen/generators.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "mce/clique.h"
#include "mce/enumerator.h"
#include "mce/naive.h"
#include "reduce/relabel.h"
#include "util/random.h"

namespace mce::reduce {
namespace {

Graph FromEdges(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges) {
  GraphBuilder b(n);
  for (auto [u, v] : edges) b.AddEdge(u, v);
  return b.Build();
}

/// Reference clique set via the baseline enumerator.
CliqueSet Reference(const Graph& g) {
  CliqueSet out;
  EnumerateMaximalCliques(g, MceOptions{}, out.Collector());
  out.Canonicalize();
  return out;
}

/// Trivial cliques plus the surviving expansions of R's maximal cliques —
/// per the ReduceGraph contract this must equal the cliques of `g`.
CliqueSet ReassembledCliques(const Graph& g, const ReductionResult& r,
                             size_t* dropped = nullptr) {
  CliqueSet out;
  for (size_t i = 0; i < r.map.num_trivial_cliques(); ++i) {
    out.Add(r.map.TrivialClique(i));
  }
  size_t leaks = 0;
  Clique expanded;
  EnumerateMaximalCliques(r.graph, MceOptions{},
                          [&](std::span<const NodeId> c) {
                            if (r.map.ExpandClique(c, &expanded)) {
                              out.Add(expanded);
                            } else {
                              ++leaks;
                            }
                          });
  if (dropped != nullptr) *dropped = leaks;
  out.Canonicalize();
  (void)g;
  return out;
}

TEST(ReduceGraphTest, PathCollapsesToEmpty) {
  const Graph g = FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_FALSE(r.unchanged);
  EXPECT_EQ(r.graph.num_nodes(), 0u);
  EXPECT_EQ(r.stats.vertices_removed, 4u);
  EXPECT_EQ(r.stats.edges_removed, 3u);
  EXPECT_EQ(r.stats.trivial_cliques, 3u);
  EXPECT_GE(r.stats.rounds, 1u);
  CliqueSet got = ReassembledCliques(g, r);
  CliqueSet want = Reference(g);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

TEST(ReduceGraphTest, StarSuppressesTheCoveredCenter) {
  // K1,4: the four leaves emit their edges; the then-isolated center's
  // {center} candidate is covered and must be suppressed, not emitted.
  const Graph g = FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_EQ(r.graph.num_nodes(), 0u);
  EXPECT_EQ(r.stats.degree1_removed, 4u);
  EXPECT_EQ(r.stats.isolated_removed, 1u);
  EXPECT_EQ(r.stats.trivial_cliques, 4u);
  EXPECT_EQ(r.stats.suppressed_cliques, 1u);
  CliqueSet got = ReassembledCliques(g, r);
  CliqueSet want = Reference(g);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

TEST(ReduceGraphTest, IsolatedVerticesEmitSingletons) {
  GraphBuilder b(3);  // no edges at all
  const Graph g = b.Build();
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_EQ(r.stats.isolated_removed, 3u);
  EXPECT_EQ(r.stats.trivial_cliques, 3u);
  CliqueSet got = ReassembledCliques(g, r);
  CliqueSet want = Reference(g);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

TEST(ReduceGraphTest, CliqueCollapsesViaSimplicialChain) {
  // K5: the first simplicial elimination emits the whole clique; every
  // later candidate is covered by it.
  GraphBuilder b(5);
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = i + 1; j < 5; ++j) b.AddEdge(i, j);
  const Graph g = b.Build();
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_EQ(r.graph.num_nodes(), 0u);
  EXPECT_EQ(r.stats.trivial_cliques, 1u);
  EXPECT_EQ(r.stats.suppressed_cliques, 4u);
  ASSERT_EQ(r.map.num_trivial_cliques(), 1u);
  EXPECT_EQ(r.map.TrivialClique(0).size(), 5u);
}

TEST(ReduceGraphTest, TrueTwinsMergeIntoSuperVertices) {
  // C5 blown up by K2s: each cycle position holds an adjacent twin pair,
  // consecutive pairs fully connected. The pairs merge (degree-5 vertices
  // with non-clique neighborhoods are otherwise untouchable) and R is
  // exactly C5; its 5 edges re-expand to the 5 maximal K4s.
  GraphBuilder b(10);
  auto a = [](NodeId pos) { return static_cast<NodeId>(2 * pos); };
  for (NodeId pos = 0; pos < 5; ++pos) {
    b.AddEdge(a(pos), a(pos) + 1);
    const NodeId next = a((pos + 1) % 5);
    for (NodeId x : {a(pos), static_cast<NodeId>(a(pos) + 1)})
      for (NodeId y : {next, static_cast<NodeId>(next + 1)}) b.AddEdge(x, y);
  }
  const Graph g = b.Build();
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_EQ(r.stats.twins_merged, 5u);
  EXPECT_EQ(r.graph.num_nodes(), 5u);
  EXPECT_EQ(r.graph.num_edges(), 5u);
  for (NodeId v = 0; v < r.graph.num_nodes(); ++v) {
    EXPECT_EQ(r.map.ClassOf(v).size(), 2u);
  }
  CliqueSet got = ReassembledCliques(g, r);
  CliqueSet want = Reference(g);
  EXPECT_EQ(want.size(), 5u);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

TEST(ReduceGraphTest, DominationCounterexampleStaysExact) {
  // Edges u-v, u-b, v-b, v-x: naive dominated-vertex deletion (u is
  // dominated by v) would lose {u,v,b} or leak {v,b}. The simplicial rule
  // plus the cover index must keep the set exact: {u,v,b} and {v,x}.
  const Graph g = FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}});
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  CliqueSet got = ReassembledCliques(g, r);
  CliqueSet want = Reference(g);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

TEST(ReduceGraphTest, ExpandCliqueDropsLeakedCliques) {
  // u={0} is simplicial over the edge v-w = {1}-{2}; v and w survive in R
  // (each pinned by a C5 that no rule touches), so {v,w} is a maximal
  // clique OF R whose expansion is contained in the emitted {u,v,w} —
  // ExpandClique must drop it.
  GraphBuilder b(13);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  for (NodeId i = 0; i < 5; ++i) {  // ring A: 3..7, ring B: 8..12
    b.AddEdge(3 + i, 3 + (i + 1) % 5);
    b.AddEdge(8 + i, 8 + (i + 1) % 5);
  }
  b.AddEdge(1, 3);
  b.AddEdge(2, 8);
  const Graph g = b.Build();
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_EQ(r.stats.dominated_removed, 1u);
  ASSERT_EQ(r.map.num_trivial_cliques(), 1u);
  EXPECT_EQ(r.map.TrivialClique(0).size(), 3u);
  size_t dropped = 0;
  CliqueSet got = ReassembledCliques(g, r, &dropped);
  EXPECT_EQ(dropped, 1u);  // exactly the leaked {v,w}
  CliqueSet want = Reference(g);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

TEST(ReduceGraphTest, TwinMergedHubKeepsItsClassClique) {
  // K12 on 0..11 with five leaves on hub 0. The leaves' degree-1 removals
  // anchor 0; the K12 members (degree > max_fold_degree) then merge into
  // 0 as true twins, which isolates 0 with class {0..11}. That class is a
  // maximal clique no emitted clique contains: the anchor set by {0,leaf}
  // must not suppress it once 0's class has grown.
  GraphBuilder b(17);
  for (NodeId i = 0; i < 12; ++i)
    for (NodeId j = i + 1; j < 12; ++j) b.AddEdge(i, j);
  for (NodeId leaf = 12; leaf < 17; ++leaf) b.AddEdge(0, leaf);
  const Graph g = b.Build();
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_EQ(r.graph.num_nodes(), 0u);
  EXPECT_EQ(r.stats.degree1_removed, 5u);
  EXPECT_EQ(r.stats.twins_merged, 11u);
  EXPECT_EQ(r.stats.isolated_removed, 1u);
  EXPECT_EQ(r.stats.trivial_cliques, 6u);
  EXPECT_EQ(r.stats.suppressed_cliques, 0u);
  CliqueSet got = ReassembledCliques(g, r);
  CliqueSet want = Reference(g);
  ASSERT_EQ(want.size(), 6u);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

/// True iff every vertex of `g` has degree >= 2.
bool MinDegreeAtLeastTwo(const Graph& g) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.Degree(v) < 2) return false;
  }
  return true;
}

TEST(ReduceGraphTest, RoundCapDrainsAndStaysExact) {
  // K12 on 0..11 plus z=12 adjacent to 0 and 1, folds off: nothing fires
  // until the twin pass merges {0,1} and {2..11}, which leaves the path
  // z - 0 - 2 behind. The capped round still drains it: z and then 0 go
  // as degree-1 removals, and 2's degree-0 class {2..11} is suppressed by
  // its anchor alone (the K12 that covers it is a degree-1 emission).
  GraphBuilder b(13);
  for (NodeId i = 0; i < 12; ++i)
    for (NodeId j = i + 1; j < 12; ++j) b.AddEdge(i, j);
  b.AddEdge(0, 12);
  b.AddEdge(1, 12);
  const Graph g = b.Build();
  ReduceOptions options;
  options.max_fold_degree = 1;
  options.max_rounds = 1;
  ReductionResult r = ReduceGraph(g, options);
  EXPECT_EQ(r.stats.rounds, 1u);
  EXPECT_EQ(r.stats.twins_merged, 10u);
  EXPECT_EQ(r.graph.num_nodes(), 0u);
  EXPECT_EQ(r.stats.trivial_cliques, 2u);
  EXPECT_EQ(r.stats.suppressed_cliques, 1u);
  CliqueSet got = ReassembledCliques(g, r);
  CliqueSet want = Reference(g);
  EXPECT_TRUE(CliqueSet::Equal(got, want));
}

/// `g` plus a true twin for each of its `count` highest-degree vertices:
/// each twin is adjacent to its hub, to the hub's neighbors, and to the
/// twins of adjacent hubs, so hub and twin share a closed neighborhood.
Graph WithHubTwins(const Graph& g, size_t count) {
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    return g.Degree(a) > g.Degree(b);
  });
  order.resize(std::min(count, order.size()));
  std::vector<NodeId> twin_of(g.num_nodes(), kInvalidNode);
  for (size_t i = 0; i < order.size(); ++i) {
    twin_of[order[i]] = g.num_nodes() + static_cast<NodeId>(i);
  }
  GraphBuilder b(g.num_nodes() + static_cast<NodeId>(order.size()));
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (NodeId v : g.Neighbors(u))
      if (u < v) b.AddEdge(u, v);
  for (NodeId hub : order) {
    const NodeId twin = twin_of[hub];
    b.AddEdge(hub, twin);
    for (NodeId v : g.Neighbors(hub)) {
      b.AddEdge(v, twin);
      if (twin_of[v] != kInvalidNode && hub < v) b.AddEdge(twin, twin_of[v]);
    }
  }
  return b.Build();
}

TEST(ReduceGraphTest, CappedAndFoldLimitedRunsStayExact) {
  // Every round cap and fold cap must give an exact reassembly and leave
  // R without a vertex of degree <= 1 (the anchor rule relies on it).
  Rng rng(31);
  const std::vector<Graph> graphs = {
      WithHubTwins(gen::PowerLawConfigurationModel(300, 2.2, 1, 40, &rng), 12),
      WithHubTwins(gen::BarabasiAlbert(200, 3, &rng), 8),
  };
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    CliqueSet want = Reference(g);
    for (uint32_t rounds : {0u, 1u, 2u}) {
      for (uint32_t fold : {1u, 3u, 8u}) {
        ReduceOptions options;
        options.max_rounds = rounds;
        options.max_fold_degree = fold;
        ReductionResult r = ReduceGraph(g, options);
        ASSERT_FALSE(r.unchanged);
        EXPECT_TRUE(MinDegreeAtLeastTwo(r.graph))
            << "graph " << gi << " rounds=" << rounds << " fold=" << fold;
        CliqueSet got = ReassembledCliques(g, r);
        EXPECT_TRUE(CliqueSet::Equal(got, want))
            << "graph " << gi << " rounds=" << rounds << " fold=" << fold;
      }
    }
  }
}

TEST(ReduceGraphTest, NothingFiresOnARegularRingLattice) {
  // Watts-Strogatz beta=0 (k=6 ring lattice): 6-regular, every
  // neighborhood non-clique, all closed neighborhoods distinct — the
  // fixed point is reached in zero firing rounds and R == G.
  Rng rng(3);
  const Graph g = gen::WattsStrogatz(200, 6, 0.0, &rng);
  ReductionResult r = ReduceGraph(g, ReduceOptions{});
  EXPECT_EQ(r.stats.rounds, 0u);
  EXPECT_EQ(r.stats.vertices_removed, 0u);
  // The pre-scan takes the irreducible fast path: no reduced copy is
  // built, the map stays inactive, callers keep the input graph.
  EXPECT_TRUE(r.unchanged);
  EXPECT_FALSE(r.map.active());
  EXPECT_EQ(r.graph.num_nodes(), 0u);
}

TEST(ReduceGraphTest, WorkspaceReuseIsDeterministic) {
  Rng rng(11);
  const Graph g1 =
      gen::PowerLawConfigurationModel(400, 2.5, 1, 30, &rng);
  const Graph g2 = gen::BarabasiAlbert(300, 2, &rng);
  ReduceWorkspace ws;
  ReductionResult first = ReduceGraph(g1, ReduceOptions{}, &ws);
  ReduceGraph(g2, ReduceOptions{}, &ws);  // dirty the workspace
  ReductionResult again = ReduceGraph(g1, ReduceOptions{}, &ws);
  EXPECT_EQ(first.graph.num_nodes(), again.graph.num_nodes());
  EXPECT_EQ(first.graph.num_edges(), again.graph.num_edges());
  EXPECT_EQ(first.stats.vertices_removed, again.stats.vertices_removed);
  EXPECT_EQ(first.stats.trivial_cliques, again.stats.trivial_cliques);
  ASSERT_EQ(first.map.num_trivial_cliques(), again.map.num_trivial_cliques());
  for (size_t i = 0; i < first.map.num_trivial_cliques(); ++i) {
    const auto a = first.map.TrivialClique(i);
    const auto b = again.map.TrivialClique(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(DegeneracyRelabelTest, PermutationPreservesBlockSemantics) {
  // Dense enough that blocks clear the relabel cost gate (>= 32 nodes,
  // average degree >= 16) — a sparse graph would make this test vacuous.
  Rng rng(5);
  const Graph g = gen::ErdosRenyiGnp(150, 0.35, &rng);
  const uint32_t m = 80;
  decomp::CutResult cut = decomp::Cut(g, m);
  ASSERT_FALSE(cut.feasible.empty());
  decomp::BlocksOptions opts;
  opts.max_block_size = m;
  std::vector<decomp::Block> blocks = decomp::BuildBlocks(g, cut.feasible, opts);
  ASSERT_FALSE(blocks.empty());
  bool any_permuted = false;
  for (decomp::Block& block : blocks) {
    // Snapshot parent-id facts before relabeling in place.
    CliqueSet before;
    EnumerateMaximalCliques(block.subgraph.graph, MceOptions{},
                            [&](std::span<const NodeId> c) {
                              Clique mapped;
                              for (NodeId v : c)
                                mapped.push_back(block.subgraph.to_parent[v]);
                              before.Add(mapped);
                            });
    std::vector<std::pair<NodeId, decomp::NodeRole>> roles_before;
    for (NodeId v = 0; v < block.num_nodes(); ++v)
      roles_before.emplace_back(block.subgraph.to_parent[v], block.roles[v]);
    std::sort(roles_before.begin(), roles_before.end());
    const NodeId nodes = block.num_nodes();
    const uint64_t edges = block.num_edges();
    const size_t kernels = block.kernel_local.size();

    DegeneracyRelabelBlock(&block);

    EXPECT_EQ(block.num_nodes(), nodes);
    EXPECT_EQ(block.num_edges(), edges);
    ASSERT_EQ(block.kernel_local.size(), kernels);
    EXPECT_TRUE(std::is_sorted(block.kernel_local.begin(),
                               block.kernel_local.end()));
    std::vector<std::pair<NodeId, decomp::NodeRole>> roles_after;
    for (NodeId v = 0; v < block.num_nodes(); ++v)
      roles_after.emplace_back(block.subgraph.to_parent[v], block.roles[v]);
    std::sort(roles_after.begin(), roles_after.end());
    EXPECT_EQ(roles_before, roles_after);
    CliqueSet after;
    EnumerateMaximalCliques(block.subgraph.graph, MceOptions{},
                            [&](std::span<const NodeId> c) {
                              Clique mapped;
                              for (NodeId v : c)
                                mapped.push_back(block.subgraph.to_parent[v]);
                              after.Add(mapped);
                            });
    EXPECT_TRUE(CliqueSet::Equal(before, after));
    if (!std::is_sorted(block.subgraph.to_parent.begin(),
                        block.subgraph.to_parent.end())) {
      any_permuted = true;
    }
  }
  // Induce assigns local ids in ascending parent order, so a
  // non-increasing to_parent proves the relabeling actually ran on at
  // least one block (the gate did not skip everything).
  EXPECT_TRUE(any_permuted);
}

// ---------------------------------------------------------------------------
// End-to-end property: with options.reduce the pipeline emits exactly the
// unreduced canonical clique set, across graph families, block bounds,
// executors, and thread counts — including the m-core fallback and a
// graph the prepass reduces to empty.

struct SweepGraph {
  std::string name;
  Graph graph;
};

std::vector<SweepGraph> SweepGraphs() {
  std::vector<SweepGraph> out;
  Rng rng(17);
  out.push_back({"er", gen::ErdosRenyiGnp(250, 0.03, &rng)});
  out.push_back({"ba", gen::BarabasiAlbert(300, 2, &rng)});
  out.push_back({"ws", gen::WattsStrogatz(300, 6, 0.1, &rng)});
  out.push_back(
      {"social", gen::PowerLawConfigurationModel(400, 2.5, 1, 40, &rng)});
  // Reduces to empty: a tree has only simplicial eliminations.
  GraphBuilder path(60);
  for (NodeId v = 0; v + 1 < 60; ++v) path.AddEdge(v, v + 1);
  out.push_back({"path", path.Build()});
  return out;
}

TEST(ReducePropertyTest, ReducedMatchesUnreducedAcrossTheSweep) {
  for (SweepGraph& sg : SweepGraphs()) {
    for (uint32_t m : {8u, 48u}) {
      decomp::FindMaxCliquesOptions base;
      base.max_block_size = m;
      base.executor = decomp::ExecutorKind::kSerial;
      base.num_threads = 1;
      base.reduce = false;
      decomp::FindMaxCliquesResult want = decomp::FindMaxCliques(sg.graph, base);
      for (decomp::ExecutorKind kind :
           {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
        for (uint32_t threads : {1u, 4u}) {
          decomp::FindMaxCliquesOptions options = base;
          options.reduce = true;
          options.executor = kind;
          options.num_threads = threads;
          decomp::FindMaxCliquesResult got =
              decomp::FindMaxCliques(sg.graph, options);
          EXPECT_TRUE(got.reduction.enabled);
          EXPECT_TRUE(CliqueSet::Equal(got.cliques, want.cliques))
              << sg.name << " m=" << m << " kind=" << static_cast<int>(kind)
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ReducePropertyTest, HubHeavyDifferentialAgainstNaive) {
  // Hub-heavy power-law inputs, where most trivial cliques are {leaf, hub}
  // pairs kept out of the cover index: reduce on/off x serial/pooled@4
  // must all equal the naive enumerator, and serial and pooled must emit
  // the same cliques in the same order.
  for (uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    const Graph g = WithHubTwins(
        gen::PowerLawConfigurationModel(1500, 2.1, 1, 150, &rng), 6);
    CliqueSet want = NaiveMceSet(g);
    for (bool reduce : {false, true}) {
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = 40;
      options.reduce = reduce;
      options.executor = decomp::ExecutorKind::kSerial;
      options.num_threads = 1;
      decomp::FindMaxCliquesResult serial = decomp::FindMaxCliques(g, options);
      options.executor = decomp::ExecutorKind::kPooled;
      options.num_threads = 4;
      decomp::FindMaxCliquesResult pooled = decomp::FindMaxCliques(g, options);
      EXPECT_EQ(serial.reduction.enabled, reduce);
      if (reduce) {
        EXPECT_GT(serial.reduction.degree1_removed, 0u) << seed;
        EXPECT_GT(serial.reduction.twins_merged, 0u) << seed;
      }
      EXPECT_EQ(serial.cliques.cliques(), pooled.cliques.cliques())
          << "seed " << seed << " reduce=" << reduce;
      EXPECT_TRUE(CliqueSet::Equal(serial.cliques, want))
          << "seed " << seed << " reduce=" << reduce;
    }
  }
}

TEST(ReducePropertyTest, PathReducesToEmptyPipeline) {
  GraphBuilder b(40);
  for (NodeId v = 0; v + 1 < 40; ++v) b.AddEdge(v, v + 1);
  const Graph g = b.Build();
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 8;
  options.reduce = true;
  decomp::FindMaxCliquesResult got = decomp::FindMaxCliques(g, options);
  EXPECT_EQ(got.reduction.vertices_removed, 40u);
  EXPECT_EQ(got.cliques.size(), 39u);  // the 39 edges
  CliqueSet want = Reference(g);
  EXPECT_TRUE(CliqueSet::Equal(got.cliques, want));
}

TEST(ReducePropertyTest, McoreFallbackStillExact) {
  // Dense ER core with m=4: the reduced graph is its own m-core (no
  // feasible vertices), so the pipeline falls back to direct enumeration
  // of R — after the prepass has already stripped the pendant. A complete
  // graph would not do here: its vertices are all true twins and the
  // prepass would collapse it outright.
  Rng rng(23);
  Graph core = gen::ErdosRenyiGnp(30, 0.6, &rng);
  GraphBuilder b(31);
  for (NodeId u = 0; u < core.num_nodes(); ++u)
    for (NodeId v : core.Neighbors(u))
      if (u < v) b.AddEdge(u, v);
  b.AddEdge(0, 30);  // pendant: guarantees the prepass fires
  const Graph g = b.Build();
  CliqueSet want = Reference(g);
  for (decomp::ExecutorKind kind :
       {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
    decomp::FindMaxCliquesOptions options;
    options.max_block_size = 4;
    options.reduce = true;
    options.executor = kind;
    options.num_threads = kind == decomp::ExecutorKind::kPooled ? 4 : 1;
    decomp::FindMaxCliquesResult got = decomp::FindMaxCliques(g, options);
    // The pendant {0,12} goes to the prepass; K12 survives reduction
    // (degree 11 > max_fold_degree) and lands in the fallback.
    EXPECT_TRUE(got.used_fallback) << static_cast<int>(kind);
    EXPECT_GE(got.reduction.degree1_removed, 1u);
    EXPECT_TRUE(CliqueSet::Equal(got.cliques, want)) << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace mce::reduce
