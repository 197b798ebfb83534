// Shared test fixtures: small named graphs, including a reconstruction of
// the paper's running example (Figure 1), and clique-set matchers.

#ifndef MCE_TESTS_TEST_UTIL_H_
#define MCE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "decomp/cut.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "mce/clique.h"
#include "mce/naive.h"

namespace mce::test {

inline Graph PathGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return b.Build();
}

inline Graph CycleGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.AddEdge(i, (i + 1) % n);
  return b.Build();
}

/// Star: center 0 connected to 1..n-1.
inline Graph StarGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.AddEdge(0, i);
  return b.Build();
}

/// Node names of the Figure 1 network.
enum Fig1Node : NodeId {
  A = 0, J, H, D, E, F, G, S, X, L, Z, R, P, Y, W, U, kFig1Nodes
};

/// The running example of the paper (Figure 1): with block size m = 5 the
/// hub nodes are D (degree 7), S and E (degree 5); maximal cliques include
/// {A,J,H}, {H,F,D} (feasible-side) and the hub-only triangle {D,S,E}.
inline Graph Figure1Graph() {
  GraphBuilder b(kFig1Nodes);
  // Feasible-side cliques.
  b.AddEdge(A, J);
  b.AddEdge(A, H);
  b.AddEdge(J, H);
  b.AddEdge(H, F);
  b.AddEdge(H, D);
  b.AddEdge(F, D);
  // The hub triangle.
  b.AddEdge(D, S);
  b.AddEdge(S, E);
  b.AddEdge(E, D);
  // Pendant neighborhoods raising the hub degrees to 7 / 5 / 5.
  b.AddEdge(D, P);
  b.AddEdge(D, R);
  b.AddEdge(D, Z);
  b.AddEdge(S, L);
  b.AddEdge(S, U);
  b.AddEdge(S, W);
  b.AddEdge(E, G);
  b.AddEdge(E, X);
  b.AddEdge(E, Y);
  return b.Build();
}

/// All 12 maximal cliques of Figure1Graph(), canonicalized.
inline CliqueSet Figure1Cliques() {
  CliqueSet cs;
  cs.Add(Clique{A, J, H});
  cs.Add(Clique{H, F, D});
  cs.Add(Clique{D, S, E});
  cs.Add(Clique{D, P});
  cs.Add(Clique{D, R});
  cs.Add(Clique{D, Z});
  cs.Add(Clique{S, L});
  cs.Add(Clique{S, U});
  cs.Add(Clique{S, W});
  cs.Add(Clique{E, G});
  cs.Add(Clique{E, X});
  cs.Add(Clique{E, Y});
  cs.Canonicalize();
  return cs;
}

/// Asserts two clique collections are equal as sets, with a readable diff.
inline void ExpectSameCliques(CliqueSet& actual, CliqueSet& expected) {
  actual.Canonicalize();
  expected.Canonicalize();
  EXPECT_EQ(actual.size(), expected.size());
  ASSERT_TRUE(CliqueSet::Equal(actual, expected))
      << "clique sets differ: actual has " << actual.size()
      << ", expected has " << expected.size();
}

/// Asserts `actual` equals the reference (naive) enumeration of `g`.
inline void ExpectMatchesNaive(const Graph& g, CliqueSet& actual) {
  CliqueSet expected = NaiveMceSet(g);
  ExpectSameCliques(actual, expected);
}

/// One level of the FIND-MAX-CLIQUES recursion, rebuilt outside the
/// engines from Cut and Induce: the level graph, its level id -> pipeline
/// id map (empty = identity, level 0) and its cut.
struct ChainLevel {
  Graph graph;
  std::vector<NodeId> to_pipeline;
  decomp::CutResult cut;
};

/// The level chain the engines walk on `pipeline` at block size m, level 0
/// first. It ends at a level without hubs, or at one without a feasible
/// node, which the engines enumerate whole as the m-core fallback.
inline std::vector<ChainLevel> LevelChain(const Graph& pipeline, uint32_t m) {
  std::vector<ChainLevel> levels;
  levels.push_back({pipeline, {}, decomp::Cut(pipeline, m)});
  for (;;) {
    const ChainLevel& last = levels.back();
    if (last.cut.hubs.empty() || last.cut.feasible.empty()) break;
    InducedSubgraph sub = Induce(last.graph, last.cut.hubs);
    std::vector<NodeId> to_pipeline;
    for (NodeId v : sub.to_parent) {
      to_pipeline.push_back(last.to_pipeline.empty() ? v
                                                     : last.to_pipeline[v]);
    }
    decomp::CutResult cut = decomp::Cut(sub.graph, m);
    levels.push_back({std::move(sub.graph), std::move(to_pipeline),
                      std::move(cut)});
  }
  return levels;
}

}  // namespace mce::test

#ifdef MCE_TEST_COUNT_ALLOCATIONS
// Process-wide operator-new counting, for zero-allocation regression tests
// (mce_alloc_test). Define MCE_TEST_COUNT_ALLOCATIONS before including
// this header in EXACTLY ONE translation unit of a test binary: the
// replaceable global operator new/delete must have a single non-inline
// definition per program, so this block intentionally does not use
// `inline`.

#include <execinfo.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace mce::test {

std::atomic<uint64_t> g_new_calls{0};

/// When true, any operator-new call aborts the process. Debugging aid:
/// flip it around a supposedly allocation-free region and run under a
/// debugger to get a backtrace of the offending allocation.
std::atomic<bool> g_trap_on_alloc{false};

/// Number of successful global operator-new calls so far. Take a snapshot
/// before and after the code under test; the difference is its allocation
/// count.
uint64_t NewCalls() { return g_new_calls.load(std::memory_order_relaxed); }

void* CountedAlloc(std::size_t size) {
  if (g_trap_on_alloc.load(std::memory_order_relaxed)) {
    g_trap_on_alloc.store(false);  // the reporting below allocates
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, 2);
    std::abort();
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
  if (p == nullptr) throw std::bad_alloc();
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return p;
}

}  // namespace mce::test

void* operator new(std::size_t size) { return mce::test::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return mce::test::CountedAlloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return mce::test::CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return mce::test::CountedAlignedAlloc(size,
                                        static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return mce::test::CountedAlignedAlloc(size,
                                        static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // MCE_TEST_COUNT_ALLOCATIONS

#endif  // MCE_TESTS_TEST_UTIL_H_
