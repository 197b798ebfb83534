// The per-level Lemma-1 index (decomp::LevelFilterIndex) against its
// reference oracle IsMaximalInGraph, with and without bit rows: on every
// level >= 1 of the pipeline's level chain, for ER, BA and social
// stand-ins with the reduction prepass on (twin classes) and off, through
// a level >= 1 m-core fallback, for single-vertex cliques, on a CSR with
// self-loops and on hub-heavy levels whose rows would outgrow their
// bound. Then end to end: the engines' emission and filter counts are
// byte-identical across serial and pooled@{2,4}, resident and budgeted +
// spilled + mmapped.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "decomp/filter.h"
#include "decomp/find_max_cliques.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "graph/storage.h"
#include "graph/subgraph.h"
#include "mce/enumerator.h"
#include "obs/metrics.h"
#include "reduce/reduction.h"
#include "test_util.h"
#include "util/random.h"

namespace mce::decomp {
namespace {

/// `g` plus one true twin (same closed neighborhood) of each of its
/// `count` highest-degree vertices, so the reduction prepass merges hub
/// classes of size two that survive into the deeper levels. Every edge
/// joins all copies of its endpoints, so adjacent hubs keep twins too.
Graph WithHubTwins(const Graph& g, NodeId count) {
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    return g.Degree(a) > g.Degree(b);
  });
  count = std::min(count, g.num_nodes());
  std::vector<NodeId> twin(g.num_nodes(), kInvalidNode);
  for (NodeId i = 0; i < count; ++i) twin[order[i]] = g.num_nodes() + i;
  GraphBuilder b(g.num_nodes() + count);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (twin[u] != kInvalidNode) b.AddEdge(u, twin[u]);
    for (NodeId v : g.Neighbors(u)) {
      if (u > v) continue;
      for (NodeId cu : {u, twin[u]}) {
        for (NodeId cv : {v, twin[v]}) {
          if (cu != kInvalidNode && cv != kInvalidNode) b.AddEdge(cu, cv);
        }
      }
    }
  }
  return b.Build();
}

/// The original-id clique a level clique stands for.
Clique Expand(std::span<const NodeId> level_ids,
              const std::vector<NodeId>& to_pipeline,
              const reduce::ReductionMap* map) {
  Clique out;
  for (NodeId v : level_ids) {
    const NodeId p = to_pipeline[v];
    if (map != nullptr && map->active()) {
      const std::span<const NodeId> members = map->ClassOf(p);
      out.insert(out.end(), members.begin(), members.end());
    } else {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Tally {
  uint64_t checked = 0;
  uint64_t maximal = 0;
  bool twin_rows = false;  // some row stands for a class of size > 1
  uint32_t levels_with_rows = 0;
};

/// Checks the index against the oracle on every maximal clique of every
/// deeper level — a superset of what the blocks emit there — on each such
/// clique minus its last member, and on every single vertex. Each level
/// gets two indexes, with the default bound and with no headroom (no bit
/// rows, the merge path), and both must answer as the oracle.
void ExpectIndexMatchesOracle(const Graph& original, bool reduce, uint32_t m,
                              Tally* tally, bool* fallback) {
  reduce::ReductionResult reduced;
  const Graph* pipeline = &original;
  const reduce::ReductionMap* map = nullptr;
  if (reduce) {
    reduced = reduce::ReduceGraph(original, reduce::ReduceOptions{});
    if (!reduced.unchanged) {
      pipeline = &reduced.graph;
      map = &reduced.map;
    }
  }
  const std::vector<test::ChainLevel> levels = test::LevelChain(*pipeline, m);
  ASSERT_GE(levels.size(), 2u) << "no level >= 1 at m = " << m;
  *fallback = levels.back().cut.feasible.empty();
  for (size_t l = 1; l < levels.size(); ++l) {
    const test::ChainLevel& level = levels[l];
    SCOPED_TRACE(testing::Message() << "level " << l);
    const LevelFilterIndex index(original, level.graph, level.to_pipeline,
                                 map);
    const LevelFilterIndex merge(original, level.graph, level.to_pipeline,
                                 map, /*headroom_bytes=*/0);
    ASSERT_FALSE(merge.has_rows());
    EXPECT_EQ(merge.ResidentBytes(), 0u);
    if (index.has_rows()) {
      ++tally->levels_with_rows;
      ASSERT_EQ(index.num_rows(), level.graph.num_nodes());
      const uint64_t words = (index.num_columns() + 63) / 64;
      EXPECT_EQ(index.ResidentBytes(), index.num_rows() * words * 8);
    }
    EXPECT_LE(index.ResidentBytes(), LevelFilterIndex::kMaxRowBytesPerGraphByte *
                                         level.graph.ResidentBytes());
    if (map != nullptr) {
      for (NodeId p : level.to_pipeline) {
        if (map->ClassOf(p).size() > 1) tally->twin_rows = true;
      }
    }
    auto check = [&](std::span<const NodeId> c) {
      const Clique expanded = Expand(c, level.to_pipeline, map);
      const bool expected = IsMaximalInGraph(original, expanded);
      ASSERT_EQ(index.IsMaximal(c, expanded), expected)
          << "clique of " << c.size() << " level ids";
      ASSERT_EQ(merge.IsMaximal(c, expanded), expected)
          << "clique of " << c.size() << " level ids, merge path";
      ++tally->checked;
      if (expected) ++tally->maximal;
    };
    EnumerateMaximalCliques(level.graph, MceOptions{},
                            [&](std::span<const NodeId> c) {
                              check(c);
                              if (c.size() >= 2) check(c.first(c.size() - 1));
                            });
    for (NodeId v = 0; v < level.graph.num_nodes(); ++v) {
      check(std::span<const NodeId>(&v, 1));
    }
  }
}

TEST(LevelFilterIndexTest, MatchesOracleOnEveryDeeperLevel) {
  Rng rng(97);
  const Graph er = gen::ErdosRenyiGnp(200, 0.1, &rng);
  const Graph ba = gen::BarabasiAlbert(300, 4, &rng);
  const Graph fb = gen::GenerateSocialNetwork(gen::FacebookConfig(0.05));
  struct Case {
    const char* name;
    Graph graph;
    uint32_t m;
  };
  const std::vector<Case> cases = {
      {"er", er, 16},
      {"er+twins", WithHubTwins(er, 12), 16},
      {"ba", ba, 12},
      {"ba+twins", WithHubTwins(ba, 12), 12},
      {"facebook", fb, 30},
      {"facebook+twins", WithHubTwins(fb, 24), 30},
  };
  for (const Case& c : cases) {
    for (const bool reduce : {false, true}) {
      SCOPED_TRACE(testing::Message() << c.name << " reduce " << reduce);
      Tally tally;
      bool fallback = false;
      ExpectIndexMatchesOracle(c.graph, reduce, c.m, &tally, &fallback);
      // Both answers occur, so the comparison is not vacuous.
      EXPECT_GT(tally.maximal, 0u);
      EXPECT_LT(tally.maximal, tally.checked);
      EXPECT_GT(tally.levels_with_rows, 0u);
      const bool twins = std::string(c.name).find("twins") != std::string::npos;
      if (reduce && twins) {
        EXPECT_TRUE(tally.twin_rows);
      }
    }
  }
}

// At m = 20 the facebook stand-in walks fourteen levels and then enumerates
// its m-core whole: the fallback's cliques go through the same index.
TEST(LevelFilterIndexTest, MatchesOracleThroughDeeperFallback) {
  const Graph fb = gen::GenerateSocialNetwork(gen::FacebookConfig(0.05));
  Tally tally;
  bool fallback = false;
  ExpectIndexMatchesOracle(fb, /*reduce=*/false, 20, &tally, &fallback);
  EXPECT_TRUE(fallback);
  EXPECT_GT(tally.maximal, 0u);
}

// A single vertex is maximal iff it has no neighbor: an isolated original
// vertex, not a vertex whose only neighbors sit outside the level.
TEST(LevelFilterIndexTest, SingleVertexCliques) {
  // 0-1-2 path, 3 isolated.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = b.Build();
  // Level {0, 2, 3} (level ids 0, 1, 2): no edges among them, yet only
  // original vertex 3 is maximal in g.
  const InducedSubgraph level = Induce(g, std::vector<NodeId>{0, 2, 3});
  const LevelFilterIndex index(g, level.graph, level.to_parent, nullptr);
  ASSERT_TRUE(index.has_rows());
  for (NodeId r = 0; r < 3; ++r) {
    const Clique original = {level.to_parent[r]};
    EXPECT_EQ(index.IsMaximal(std::span<const NodeId>(&r, 1), original),
              IsMaximalInGraph(g, original))
        << "level vertex " << r;
  }
  EXPECT_FALSE(index.IsMaximal(std::vector<NodeId>{0}, Clique{0}));
  EXPECT_TRUE(index.IsMaximal(std::vector<NodeId>{2}, Clique{3}));
}

// FromSortedCsr and FromStorage trust their rows; with self-loops a member
// appears in its own row, and the index must still answer exactly as the
// oracle (which drops the members from the common neighbors).
TEST(LevelFilterIndexTest, SelfLoopsMatchOracle) {
  // Triangle {0, 1, 2} plus pendant 3 on 2; 0 and 2 carry self-loops.
  std::vector<uint64_t> offsets = {0, 3, 5, 9, 10};
  std::vector<NodeId> adjacency = {0, 1, 2,     // 0: self, 1, 2
                                   0, 2,        // 1
                                   0, 1, 2, 3,  // 2: self
                                   2};          // 3
  const Graph g = Graph::FromStorage(std::make_shared<OwnedCsrStorage>(
      std::move(offsets), std::move(adjacency)));
  const LevelFilterIndex index(g, g, {}, nullptr);
  ASSERT_TRUE(index.has_rows());
  const std::vector<Clique> cliques = {{0},    {1},    {2},       {3},
                                       {0, 1}, {0, 2}, {1, 2},    {2, 3},
                                       {0, 1, 2}};
  for (const Clique& c : cliques) {
    EXPECT_EQ(index.IsMaximal(c, c), IsMaximalInGraph(g, c))
        << "clique of size " << c.size() << " starting at " << c.front();
  }
  EXPECT_TRUE(index.IsMaximal(Clique{0, 1, 2}, Clique{0, 1, 2}));
  EXPECT_FALSE(index.IsMaximal(Clique{0, 2}, Clique{0, 2}));
}

// On a hub-heavy input dense rows would outgrow the level: the twitter3
// stand-in at scale 0.12 and m = 19 keeps 2,771-3,054 hubs at each deeper
// level, each a row over all 3,600 original vertices, about 2.5 times the
// level graph's CSR. The index must stay within its bound — here by
// building no rows at all — and still answer as the oracle.
TEST(LevelFilterIndexTest, HubHeavyLevelsStayWithinTheBound) {
  const Graph g = gen::GenerateSocialNetwork(gen::Twitter3Config(0.12));
  const std::vector<test::ChainLevel> levels = test::LevelChain(g, 19);
  ASSERT_GE(levels.size(), 2u);
  for (size_t l = 1; l < levels.size(); ++l) {
    const test::ChainLevel& level = levels[l];
    SCOPED_TRACE(testing::Message() << "level " << l);
    ASSERT_GT(level.graph.num_nodes(), 2000u);
    const LevelFilterIndex index(g, level.graph, level.to_pipeline, nullptr);
    EXPECT_LE(index.ResidentBytes(), LevelFilterIndex::kMaxRowBytesPerGraphByte *
                                         level.graph.ResidentBytes());
    EXPECT_FALSE(index.has_rows());
    for (NodeId v = 0; v < level.graph.num_nodes(); ++v) {
      const Clique original = {level.to_pipeline[v]};
      ASSERT_EQ(index.IsMaximal(std::span<const NodeId>(&v, 1), original),
                IsMaximalInGraph(g, original));
    }
  }
}

// End to end: the engines filter through the index; their emission (order
// included) and their filter counters must be byte-identical across
// executors, thread counts, and a small budget with spilled sinks over an
// mmapped graph — and equal the textbook enumeration.
struct Emission {
  std::vector<std::pair<Clique, uint32_t>> cliques;
  uint64_t filter_checked = 0;
  uint64_t filter_kept = 0;
};

Emission RunEngine(const Graph& g, FindMaxCliquesOptions options,
                   ExecutorKind kind, uint32_t threads) {
  obs::MetricsRegistry registry;
  options.executor = kind;
  options.num_threads = threads;
  options.metrics = &registry;
  Emission out;
  FindMaxCliquesStreaming(g, options,
                          [&out](std::span<const NodeId> c, uint32_t level) {
                            out.cliques.emplace_back(Clique(c.begin(), c.end()),
                                                     level);
                          });
  out.filter_checked =
      registry.GetCounter("exec.filter_cliques_checked").value();
  out.filter_kept = registry.GetCounter("exec.filter_cliques_kept").value();
  return out;
}

TEST(LevelFilterIndexTest, EnginesEmitIdenticallyWithAndWithoutBudget) {
  const Graph fb = gen::GenerateSocialNetwork(gen::FacebookConfig(0.05));
  const std::vector<std::pair<Graph, uint32_t>> inputs = {
      {fb, 30}, {fb, 20}, {WithHubTwins(fb, 24), 30}};
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i].first;
    const std::string path =
        testing::TempDir() + "/filter_index_" + std::to_string(i) + ".mcsr";
    ASSERT_TRUE(WriteCsrBinary(g, path).ok());
    Result<Graph> mapped = OpenMmapGraph(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    const CliqueSet expected = EnumerateToSet(g, MceOptions{});
    for (const bool reduce : {false, true}) {
      SCOPED_TRACE(testing::Message() << "input " << i << " reduce " << reduce);
      FindMaxCliquesOptions options;
      options.max_block_size = inputs[i].second;
      options.reduce = reduce;
      const Emission reference =
          RunEngine(g, options, ExecutorKind::kSerial, 1);
      CliqueSet emitted;
      for (const auto& [c, level] : reference.cliques) emitted.Add(c);
      emitted.Canonicalize();
      EXPECT_EQ(emitted.cliques(), expected.cliques());
      EXPECT_GT(reference.filter_checked, reference.filter_kept);

      FindMaxCliquesOptions budgeted = options;
      budgeted.memory_budget_bytes = 64ull << 10;
      budgeted.spill_dir = testing::TempDir();
      budgeted.spill_threshold_bytes = 4096;
      for (const bool tight : {false, true}) {
        const Graph& input = tight ? *mapped : g;
        const FindMaxCliquesOptions& run = tight ? budgeted : options;
        std::vector<std::pair<ExecutorKind, uint32_t>> legs = {
            {ExecutorKind::kPooled, 2}, {ExecutorKind::kPooled, 4}};
        if (tight) legs.insert(legs.begin(), {ExecutorKind::kSerial, 1});
        for (const auto& [kind, threads] : legs) {
          SCOPED_TRACE(testing::Message() << "tight " << tight << " threads "
                                          << threads);
          const Emission e = RunEngine(input, run, kind, threads);
          EXPECT_EQ(e.cliques, reference.cliques);
          EXPECT_EQ(e.filter_checked, reference.filter_checked);
          EXPECT_EQ(e.filter_kept, reference.filter_kept);
        }
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace mce::decomp
