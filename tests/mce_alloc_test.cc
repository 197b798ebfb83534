// Zero-allocation regression tests for the MCE kernels and block
// analysis: after a warm-up pass has grown every scratch pool, repeating
// the same work must perform zero heap allocations. Guards the core
// property of the workspace design (mce/workspace.h) — without it, a
// stray by-value copy or per-node vector silently reintroduces
// allocator traffic in the innermost loop. Block growth gets the same
// guard in bounded form: a constant number of allocations per block.

#define MCE_TEST_COUNT_ALLOCATIONS 1
#include "test_util.h"

#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "decomp/block_analysis.h"
#include "decomp/blocks.h"
#include "decomp/cut.h"
#include "gen/generators.h"
#include "graph/builder.h"
#include "mce/pivoter.h"
#include "mce/workspace.h"
#include "util/random.h"

namespace mce {
namespace {

constexpr PivotRule kRules[] = {PivotRule::kMaxDegree,
                                PivotRule::kMaxIntersection,
                                PivotRule::kVisitedFirst};

/// Dense enough that the recursion has real depth and clique volume.
Graph DenseGraph() {
  Rng rng(1);
  return gen::ErdosRenyiGnp(64, 0.4, &rng);
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

/// Runs `fn` once to warm the scratch, then asserts a second identical run
/// allocates nothing.
template <typename Fn>
void ExpectSecondRunAllocFree(const char* what, Fn&& fn) {
  fn();
  const uint64_t before = test::NewCalls();
  test::g_trap_on_alloc.store(true);
  fn();
  test::g_trap_on_alloc.store(false);
  EXPECT_EQ(test::NewCalls() - before, 0u)
      << what << " allocated in steady state";
}

TEST(AllocFreeTest, ListRunnerSteadyState) {
  const Graph g = DenseGraph();
  const ListStorage storage(g);
  const std::vector<NodeId> all = AllNodes(g);
  uint64_t total = 0;
  const CliqueCallback emit = [&total](std::span<const NodeId> c) {
    total += c.size();
  };
  for (PivotRule rule : kRules) {
    VectorMceRunner<ListStorage> runner(storage, rule);
    ExpectSecondRunAllocFree("list runner", [&] {
      runner.Run({}, all, {}, emit);
    });
  }
  EXPECT_GT(total, 0u);
}

TEST(AllocFreeTest, MatrixRunnerSteadyState) {
  const Graph g = DenseGraph();
  const MatrixStorage storage(g);
  const std::vector<NodeId> all = AllNodes(g);
  uint64_t total = 0;
  const CliqueCallback emit = [&total](std::span<const NodeId> c) {
    total += c.size();
  };
  for (PivotRule rule : kRules) {
    VectorMceRunner<MatrixStorage> runner(storage, rule);
    ExpectSecondRunAllocFree("matrix runner", [&] {
      runner.Run({}, all, {}, emit);
    });
  }
  EXPECT_GT(total, 0u);
}

TEST(AllocFreeTest, BitsetRunnerSteadyState) {
  const Graph g = DenseGraph();
  const BitsetGraph bg(g);
  Bitset p(g.num_nodes());
  p.SetAll();
  const Bitset x(g.num_nodes());
  uint64_t total = 0;
  const CliqueCallback emit = [&total](std::span<const NodeId> c) {
    total += c.size();
  };
  for (PivotRule rule : kRules) {
    BitsetMceRunner runner(bg, rule);
    ExpectSecondRunAllocFree("bitset runner", [&] {
      runner.Run({}, p, x, emit);
    });
  }
  EXPECT_GT(total, 0u);
}

TEST(BlocksAllocTest, AllocationsPerBlockDoNotDependOnBlockSize) {
  // BLOCKS grows every block over one workspace allocated per call, so
  // after the first block each block costs only its own vectors and its
  // Graph storage: the same count for a 5-node block as for a 60-node
  // block whose members include degree-1000 hubs. Per-block hash sets or
  // push_back-grown rows would make the count scale with the block.
  const uint32_t m = 60;
  const NodeId kLeaves = 1000;
  GraphBuilder b;
  // Block A (first, warms the workspace) and block C share the shape:
  // a center adjacent to hubs 1..3 and to 56 degree-1 nodes.
  const NodeId hubs[] = {1, 2, 3};
  std::vector<NodeId> feasible;
  auto add_hub_block = [&](NodeId center, NodeId first_leaf) {
    feasible.push_back(center);
    for (NodeId h : hubs) b.AddEdge(center, h);
    for (NodeId v = first_leaf; v < first_leaf + 56; ++v) {
      b.AddEdge(center, v);
      feasible.push_back(v);
    }
  };
  add_hub_block(0, 4);  // nodes 0..59
  // Block B: a 5-node star, nodes 60..64.
  feasible.push_back(60);
  for (NodeId v = 61; v <= 64; ++v) {
    b.AddEdge(60, v);
    feasible.push_back(v);
  }
  add_hub_block(65, 66);  // nodes 65, 66..121
  // Hub rows: 1000 non-feasible pendant nodes each.
  NodeId next = 122;
  for (NodeId h : hubs) {
    for (NodeId i = 0; i < kLeaves; ++i) b.AddEdge(h, next++);
  }
  const Graph g = b.Build();
  for (NodeId h : hubs) ASSERT_GE(g.Degree(h), kLeaves);

  decomp::BlocksOptions options;
  options.max_block_size = m;
  options.seed_policy = decomp::SeedPolicy::kFirstId;
  std::vector<uint64_t> allocations;
  std::vector<NodeId> sizes;
  allocations.reserve(8);
  sizes.reserve(8);
  uint64_t mark = test::NewCalls();
  decomp::BuildBlocksStreaming(
      g, feasible, options, [&](decomp::Block&& block) {
        allocations.push_back(test::NewCalls() - mark);
        sizes.push_back(block.num_nodes());
        mark = test::NewCalls();
      });
  ASSERT_EQ(sizes, (std::vector<NodeId>{60, 5, 60}));
  // allocations[0] also covers the per-call workspace.
  EXPECT_EQ(allocations[1], allocations[2])
      << "5-node block vs 60-node hub block";
  EXPECT_LE(allocations[2], 8u);
}

class AnalyzeBlockAllocTest : public ::testing::TestWithParam<StorageKind> {};

TEST_P(AnalyzeBlockAllocTest, BlockStreamSteadyState) {
  // A workspace reused across a stream of blocks (as each pool worker does)
  // must stop allocating once it has seen the stream once.
  Rng rng(47);
  const Graph g = gen::BarabasiAlbert(150, 4, &rng);
  const uint32_t m = 25;
  const decomp::CutResult cut = decomp::Cut(g, m);
  decomp::BlocksOptions boptions;
  boptions.max_block_size = m;
  const std::vector<decomp::Block> blocks =
      decomp::BuildBlocks(g, cut.feasible, boptions);
  ASSERT_GT(blocks.size(), 1u);

  decomp::BlockAnalysisOptions aoptions;
  aoptions.fixed = {Algorithm::kTomita, GetParam()};
  BlockWorkspace workspace;
  uint64_t total = 0;
  const CliqueCallback emit = [&total](std::span<const NodeId> c) {
    total += c.size();
  };
  ExpectSecondRunAllocFree("AnalyzeBlock stream", [&] {
    for (const decomp::Block& block : blocks) {
      decomp::AnalyzeBlock(block, aoptions, emit, &workspace);
    }
  });
  EXPECT_GT(total, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStorages, AnalyzeBlockAllocTest,
                         ::testing::Values(StorageKind::kAdjacencyList,
                                           StorageKind::kMatrix,
                                           StorageKind::kBitset),
                         [](const ::testing::TestParamInfo<StorageKind>& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace mce
