// Induced subgraphs with id mappings back to the parent graph.
//
// Both decomposition levels rely on induction: the first level recurses on
// the subgraph induced by the hub nodes (procedure `induced` of Algorithm 1),
// and the second level materializes each block as the subgraph induced by
// its kernel/border/visited nodes. Cliques found in the subgraph must be
// reported in the parent's id space, hence the to_parent mapping.

#ifndef MCE_GRAPH_SUBGRAPH_H_
#define MCE_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace mce {

/// A subgraph plus the mapping from its compact ids to the parent's ids.
struct InducedSubgraph {
  Graph graph;
  /// to_parent[i] is the parent id of subgraph node i; strictly increasing.
  std::vector<NodeId> to_parent;
};

/// Builds the subgraph of `g` induced by `nodes`.
///
/// `nodes` may be in any order and contain duplicates; the result's node i
/// corresponds to the i-th smallest distinct input id. The k members are
/// sorted once; each member's row is then merged against the member list,
/// linearly when the two have comparable length and by galloping through
/// the longer one otherwise. There is no setup proportional to the
/// parent's size, so one-off small subsets stay cheap, and a hub row far
/// longer than k costs O(k log(deg / k)) rather than O(deg).
InducedSubgraph Induce(const Graph& g, std::span<const NodeId> nodes);

/// Marks a parent node as outside the subgraph in InduceScratch::slot.
inline constexpr NodeId kEmptySlot = kInvalidNode;

/// Caller-owned scratch for inducing many subgraphs of one parent graph
/// (BLOCKS materializes one per block). Allocated once, O(n) in size.
struct InduceScratch {
  explicit InduceScratch(NodeId num_nodes) : slot(num_nodes, kEmptySlot) {}

  /// Parent id -> local id while an Induce call runs; kEmptySlot for every
  /// node between calls. A caller may keep its own non-empty marks on the
  /// nodes it is about to induce: the call overwrites and then clears them.
  std::vector<NodeId> slot;
  /// Grow-only staging buffer for the local rows; the result receives an
  /// exactly sized copy.
  std::vector<NodeId> adjacency;
};

/// Builds the subgraph of `g` induced by `sorted_nodes`, which must be
/// strictly increasing, through `scratch`'s dense slot array: one O(1)
/// lookup per entry of each member's row, O(sum of member degrees) in
/// total with no per-call setup. Requires scratch->slot to be empty on
/// every node outside `sorted_nodes`; leaves it empty everywhere.
InducedSubgraph Induce(const Graph& g, std::span<const NodeId> sorted_nodes,
                       InduceScratch* scratch);

/// Translates a clique (or any node list) from subgraph ids to parent ids.
std::vector<NodeId> ToParentIds(const InducedSubgraph& sub,
                                std::span<const NodeId> nodes);

}  // namespace mce

#endif  // MCE_GRAPH_SUBGRAPH_H_
