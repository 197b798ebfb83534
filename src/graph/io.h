// Graph serialization.
//
// Section 6.2 of the paper distributes each dataset as files of records
// <n1, e, n2> — two node labels and an edge label — and hash-encodes the
// labels for speed. ReadTriples reproduces that pipeline: labels are
// interned into dense ids (the "hash encoding") and the label table is kept
// for reporting cliques in the original vocabulary. Plain numeric edge
// lists (the SNAP format) and a compact binary format are also supported.

#ifndef MCE_GRAPH_IO_H_
#define MCE_GRAPH_IO_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace mce {

/// A graph whose nodes carry external string labels.
struct LabeledGraph {
  Graph graph;
  /// labels[v] is the external label of node v.
  std::vector<std::string> labels;
  /// Distinct edge labels seen in the input (informational; the clique
  /// problem ignores them).
  std::vector<std::string> edge_labels;
};

/// Interns string labels into dense node ids, first-seen order.
class LabelInterner {
 public:
  /// Returns the id of `label`, assigning the next free id when new.
  NodeId Intern(const std::string& label);

  /// Returns the id of `label` or kInvalidNode when unknown.
  NodeId Lookup(const std::string& label) const;

  size_t size() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  std::unordered_map<std::string, NodeId> index_;
  std::vector<std::string> labels_;
};

/// Reads a whitespace-separated numeric edge list ("u v" per line).
/// Lines starting with '#' or '%' are comments. Node ids are used as given
/// (the graph covers [0, max id]).
Result<Graph> ReadEdgeList(const std::string& path);

/// Writes "u v" lines, one per undirected edge.
Status WriteEdgeList(const Graph& g, const std::string& path);

/// Reads <n1, e, n2> triples: three whitespace-separated tokens per line,
/// node and edge labels as arbitrary strings (Section 6.2 format).
Result<LabeledGraph> ReadTriples(const std::string& path);

/// Writes triples using the given labels; the edge label is "e" when the
/// labeled graph carries none.
Status WriteTriples(const LabeledGraph& g, const std::string& path);

/// Compact binary format: header (magic, node count, edge count) followed
/// by the edge pairs. Fast path for benchmark reruns on large graphs.
Status WriteBinary(const Graph& g, const std::string& path);
Result<Graph> ReadBinary(const std::string& path);

/// MCECSR02 binary CSR format (layout in graph/storage.h): the graph's two
/// CSR arrays verbatim behind a 32-byte header, 64-bit offsets throughout.
/// Written by tools/mce_convert; the mmap read path below serves graphs
/// larger than RAM without heap-materializing the CSR.
Status WriteCsrBinary(const Graph& g, const std::string& path);

/// Reads an MCECSR02 file into an owned (heap) graph, after the same size
/// and structure checks as MmapCsrStorage::Open (CsrFileBytes,
/// ValidateCsr in graph/storage.h). Revalidates per-row invariants in
/// debug builds via Graph::FromSortedCsr.
Result<Graph> ReadCsrBinary(const std::string& path);

/// Opens an MCECSR02 file as a zero-copy mmap-backed graph. The returned
/// graph's ResidentBytes() is 0 — its pages are clean and reclaimable —
/// and copies of it share the single mapping.
Result<Graph> OpenMmapGraph(const std::string& path);

/// Graphviz DOT export for small graphs / community inspection. Nodes
/// whose ids appear in `highlight` are filled; `labels` (optional, may be
/// empty) names the nodes.
Status WriteDot(const Graph& g, const std::string& path,
                const std::vector<std::string>& labels = {},
                const std::vector<NodeId>& highlight = {});

}  // namespace mce

#endif  // MCE_GRAPH_IO_H_
