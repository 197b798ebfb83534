// GraphStorage and the MCECSR02 binary format: heap/mmap equality, header
// validation, and the Graph ownership semantics the storage refactor
// introduced (copies share storage, moves reset the source to empty).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/storage.h"
#include "graph/subgraph.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace mce {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(GraphStorageTest, CsrBinaryRoundTripHeap) {
  const Graph g = test::Figure1Graph();
  const std::string path = TempPath("fig1.mcsr");
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  Result<Graph> back = ReadCsrBinary(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == g);
  EXPECT_EQ(back->storage().kind(), std::string("heap"));
  std::remove(path.c_str());
}

TEST(GraphStorageTest, MmapGraphEqualsHeapGraph) {
  const Graph g = test::Figure1Graph();
  const std::string path = TempPath("fig1_mmap.mcsr");
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(*mapped == g);
  EXPECT_EQ(mapped->storage().kind(), std::string("mmap"));
  // mmap pages are clean and reclaimable, so they are not resident state.
  EXPECT_EQ(mapped->ResidentBytes(), 0u);
  EXPECT_GT(g.ResidentBytes(), 0u);
  // Neighbor queries behave identically through either storage.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(mapped->Degree(u), g.Degree(u));
  }
  std::remove(path.c_str());
}

TEST(GraphStorageTest, MmapRejectsBadMagic) {
  const std::string path = TempPath("badmagic.mcsr");
  ASSERT_TRUE(WriteCsrBinary(test::PathGraph(4), path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ReadCsrBinary(path).ok());
  std::remove(path.c_str());
}

TEST(GraphStorageTest, MmapRejectsTruncatedFile) {
  const std::string path = TempPath("truncated.mcsr");
  ASSERT_TRUE(WriteCsrBinary(test::Figure1Graph(), path).ok());
  // Chop the adjacency tail: the size check must notice the file no
  // longer matches its own header.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  out.close();
  EXPECT_FALSE(OpenMmapGraph(path).ok());
  EXPECT_FALSE(ReadCsrBinary(path).ok());
  std::remove(path.c_str());
}

/// Writes `g` as MCECSR02 to `path`, then overwrites `size` bytes at file
/// offset `at` with `bytes`.
void WritePatchedCsr(const Graph& g, const std::string& path, uint64_t at,
                     const void* bytes, size_t size) {
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
}

// Regression: the mmap loader used to check only the offset endpoints, so
// a neighbor id past n ran (and silently lost cliques) under --mmap-graph
// while the heap loader rejected the file. Both share ValidateCsr now.
TEST(GraphStorageTest, BothLoadersRejectOutOfRangeNeighbor) {
  Rng rng(5);
  const Graph g = gen::BarabasiAlbert(400, 3, &rng);
  const std::string path = TempPath("bad_neighbor.mcsr");
  const NodeId bad = 0x7ffffff0;
  const uint64_t adjacency_at = 32 + (uint64_t{g.num_nodes()} + 1) * 8;
  WritePatchedCsr(g, path, adjacency_at + 10 * sizeof(NodeId), &bad,
                  sizeof(bad));
  Result<Graph> heap = ReadCsrBinary(path);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kInvalidArgument);
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(GraphStorageTest, BothLoadersRejectNonMonotoneOffsets) {
  Rng rng(6);
  const Graph g = gen::BarabasiAlbert(400, 3, &rng);
  const std::string path = TempPath("bad_offsets.mcsr");
  // offsets[1] jumps past offsets[2]; the endpoints stay intact.
  const uint64_t bad = g.storage().offsets()[3] + 1;
  WritePatchedCsr(g, path, 32 + 8, &bad, sizeof(bad));
  Result<Graph> heap = ReadCsrBinary(path);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kInvalidArgument);
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ValidateCsr scans in fixed-width chunks plus a tail: a single bad entry
// must be caught at every position, in both arrays.
TEST(GraphStorageTest, ValidateCsrCatchesABadEntryAtEveryPosition) {
  const uint64_t n = 40;
  std::vector<uint64_t> offsets(n + 1);
  for (uint64_t v = 0; v <= n; ++v) offsets[v] = v;  // one entry per row
  std::vector<NodeId> adjacency(n);
  for (NodeId v = 0; v < n; ++v) adjacency[v] = (v + 1) % n;
  ASSERT_TRUE(ValidateCsr("ok", offsets, adjacency).ok());
  for (size_t at = 0; at < adjacency.size(); ++at) {
    std::vector<NodeId> bad = adjacency;
    bad[at] = static_cast<NodeId>(n);
    EXPECT_EQ(ValidateCsr("id", offsets, bad).code(),
              StatusCode::kInvalidArgument)
        << "neighbor id n at " << at;
  }
  for (size_t at = 1; at < n; ++at) {
    std::vector<uint64_t> bad = offsets;
    bad[at] = offsets[at + 1] + 1;
    EXPECT_EQ(ValidateCsr("offsets", bad, adjacency).code(),
              StatusCode::kInvalidArgument)
        << "descending offset at " << at;
  }
}

// A header claiming far more edges than the file holds is rejected by the
// size check before either loader sizes anything from it.
TEST(GraphStorageTest, BothLoadersRejectOversizedEdgeCount) {
  const std::string path = TempPath("huge_m.mcsr");
  const uint64_t huge = uint64_t{1} << 62;
  WritePatchedCsr(test::PathGraph(4), path, 16, &huge, sizeof(huge));
  EXPECT_EQ(ReadCsrBinary(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(OpenMmapGraph(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(GraphStorageTest, CopiesShareStorage) {
  const Graph g = test::Figure1Graph();
  const Graph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy == g);
  // A copy is a second view of the same immutable CSR, not a clone.
  EXPECT_EQ(&copy.storage(), &g.storage());
  EXPECT_EQ(copy.Neighbors(0).data(), g.Neighbors(0).data());
}

TEST(GraphStorageTest, MoveResetsSourceToEmpty) {
  Graph g = test::Figure1Graph();
  const Graph expect = g;
  Graph moved = std::move(g);
  EXPECT_TRUE(moved == expect);
  // The moved-from graph is the valid empty graph, not a dangling view.
  EXPECT_EQ(g.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(g.num_edges(), 0u);
  g = std::move(moved);
  EXPECT_TRUE(g == expect);
  EXPECT_EQ(moved.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(GraphStorageTest, InduceOnMmapGraphMatchesHeap) {
  const Graph g = test::Figure1Graph();
  const std::string path = TempPath("induce.mcsr");
  ASSERT_TRUE(WriteCsrBinary(g, path).ok());
  Result<Graph> mapped = OpenMmapGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const std::vector<NodeId> keep = {test::D, test::S, test::E, test::H};
  InducedSubgraph from_heap = Induce(g, keep);
  InducedSubgraph from_mmap = Induce(*mapped, keep);
  EXPECT_TRUE(from_heap.graph == from_mmap.graph);
  EXPECT_EQ(from_heap.to_parent, from_mmap.to_parent);
  // The induced graph is always heap-owned, whatever fed it.
  EXPECT_EQ(from_mmap.graph.storage().kind(), std::string("heap"));
  std::remove(path.c_str());
}

TEST(GraphStorageTest, EmptyGraphHasValidStorage) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.storage().offsets().size(), 1u);
}

}  // namespace
}  // namespace mce
