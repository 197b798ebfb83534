// Clique filtering (Lemma 1 and the `filter` procedure of Algorithm 1).
//
// The hub-side recursion returns cliques that are maximal in the induced
// hub graph G_h but possibly extendable by a feasible node of G. Two
// equivalent filters are provided:
//  * FilterContainedCliques — the literal Lemma 1 statement: drop every
//    clique of C_h contained in some clique of C_f (set containment);
//  * FilterNonMaximal — the graph-based form: keep a clique iff it has no
//    common neighbor in G (i.e. it is maximal in G).
// They agree whenever C_f covers all maximal cliques with a feasible node
// (property-tested in tests/decomp_filter_test.cc). The production path is
// the graph-based form, precomputed once per level as a LevelFilterIndex
// (bit rows over the level's vertices); IsMaximalInGraph is its reference
// oracle, and its answer on levels whose bit rows would be too large.

#ifndef MCE_DECOMP_FILTER_H_
#define MCE_DECOMP_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mce/clique.h"
#include "mce/clique_sink.h"
#include "reduce/reduction.h"

namespace mce::decomp {

/// Lemma 1 filter: cliques of `ch` not contained in (or equal to) any
/// clique of `cf`. O(|ch| * candidates) using a per-vertex index over cf.
CliqueSet FilterContainedCliques(const CliqueSet& ch, const CliqueSet& cf);

/// Keeps the cliques of `cliques` that are maximal in `g` (no vertex of g
/// is adjacent to all members). Clique node ids must be g's ids.
CliqueSet FilterNonMaximal(const Graph& g, const CliqueSet& cliques);

/// Predicate form of FilterNonMaximal for one clique.
bool IsMaximalInGraph(const Graph& g, const Clique& clique);

/// The telescoped Lemma-1 filter of one recursion level l >= 1,
/// precomputed over the level's vertices. Row r is the set of
/// original-graph vertices adjacent to every member of r's class — the
/// twin class ClassOf(r) under the reduction prepass, r alone otherwise —
/// with the members' own bits cleared (so a self-loop in the CSR cannot
/// make a member its own common neighbor). Columns are the sorted union
/// of the rows' entries; rows are stored back to back, each a whole
/// number of 64-bit words.
///
/// A clique of G_l (level ids) expands to the union of its members'
/// classes, and the AND of its rows is exactly that expansion's set of
/// common neighbors in the original graph, members excluded — so the bit
/// rows answer IsMaximalInGraph(original, expand(c)) for every non-empty
/// clique.
///
/// The rows are dense, so their size is rows x columns / 8 bytes, which
/// on a level with many hubs over a large original graph grows with the
/// product of the two. They are therefore built only while they stay
/// within kMaxRowBytesPerGraphByte times the level graph's CSR bytes and
/// within the caller's budget headroom; otherwise the index holds no rows
/// and answers every query with IsMaximalInGraph on the expanded clique,
/// at no memory cost. Both forms give the same answers. Immutable after
/// construction; safe to query from many threads at once.
class LevelFilterIndex {
 public:
  /// The bit rows may take at most this many bytes per byte of the level
  /// graph's CSR.
  static constexpr uint64_t kMaxRowBytesPerGraphByte = 2;

  LevelFilterIndex() = default;

  /// Builds the index of `level_graph`: level id r is pipeline-graph
  /// vertex to_original[r] (empty = identity), which expands to original
  /// ids through `expansion` (null or inactive = identity). The bit rows
  /// are built only if they fit both kMaxRowBytesPerGraphByte *
  /// level_graph.ResidentBytes() and `headroom_bytes` (what the run's
  /// MemoryBudget can still charge). `original` must outlive the index.
  LevelFilterIndex(const Graph& original, const Graph& level_graph,
                   const std::vector<NodeId>& to_original,
                   const reduce::ReductionMap* expansion,
                   uint64_t headroom_bytes = UINT64_MAX);

  /// True iff the clique with level ids `level_ids` (non-empty, any order,
  /// distinct), whose expansion to sorted original ids is `original_ids`,
  /// is maximal in the original graph. With bit rows: the AND of the
  /// members' rows is empty — swept in blocks of 64 words, keeping only
  /// the words still nonzero after each row, and stopping at the first
  /// block with a survivor (a common neighbor); `original_ids` is not
  /// read. Without: IsMaximalInGraph(original, original_ids).
  /// Allocation-free with bit rows.
  bool IsMaximal(std::span<const NodeId> level_ids,
                 const Clique& original_ids) const;

  /// Whether the bit rows were built.
  bool has_rows() const { return has_rows_; }
  /// Rows and columns of the bit rows; both 0 without rows.
  NodeId num_rows() const { return num_rows_; }
  size_t num_columns() const { return num_columns_; }
  /// Bytes of the bit rows: num_rows * ceil(num_columns / 64) * 8, or 0
  /// without rows. This is what the engines charge to the run's
  /// MemoryBudget.
  uint64_t ResidentBytes() const { return bits_.capacity() * sizeof(uint64_t); }

 private:
  const Graph* original_ = nullptr;
  bool has_rows_ = false;
  NodeId num_rows_ = 0;
  size_t num_columns_ = 0;
  size_t words_ = 0;  // 64-bit words per row
  std::vector<uint64_t> bits_;
};

/// Streams cliques [begin, end) of the global concatenation of `sinks`
/// (append order within each sink, sinks in the given order) to `fn` —
/// the FilterTask's input iterator. Chunk boundaries are indices into
/// this concatenation, so the filter partitions identically whether the
/// sinks are resident or spilled; spilled sinks stream one disk chunk at
/// a time through a per-call buffer. Thread-safe for concurrent callers
/// over the same quiesced sinks.
void ForEachCliqueInRange(std::span<const CliqueSink* const> sinks,
                          size_t begin, size_t end, const CliqueCallback& fn);

}  // namespace mce::decomp

#endif  // MCE_DECOMP_FILTER_H_
