#include "graph/subgraph.h"

#include <algorithm>

#include "util/gallop.h"

namespace mce {

namespace {

/// Appends to `out` the local ids (positions in `members`) of the entries
/// of `row` that are members. Both inputs are sorted, so the appended run
/// is sorted too.
void AppendLocalRow(std::span<const NodeId> row,
                    std::span<const NodeId> members,
                    std::vector<NodeId>* out) {
  const NodeId* const base = members.data();
  const NodeId* r = row.data();
  const NodeId* const row_end = r + row.size();
  const NodeId* s = base;
  const NodeId* const members_end = s + members.size();
  if (members.size() > kGallopRatio * row.size()) {
    for (; r != row_end; ++r) {
      s = GallopLowerBound(s, members_end, *r);
      if (s == members_end) return;
      if (*s == *r) out->push_back(static_cast<NodeId>(s - base));
    }
    return;
  }
  if (row.size() > kGallopRatio * members.size()) {
    for (; s != members_end; ++s) {
      r = GallopLowerBound(r, row_end, *s);
      if (r == row_end) return;
      if (*r == *s) out->push_back(static_cast<NodeId>(s - base));
    }
    return;
  }
  while (r != row_end && s != members_end) {
    if (*r < *s) {
      ++r;
    } else if (*s < *r) {
      ++s;
    } else {
      out->push_back(static_cast<NodeId>(s - base));
      ++r;
      ++s;
    }
  }
}

}  // namespace

// Both overloads rely on the parent's rows being sorted: filtering a row
// through a monotone parent->local map yields the local row already sorted
// and symmetric, so the CSR is built directly, skipping GraphBuilder's
// sort/dedup pass.

InducedSubgraph Induce(const Graph& g, std::span<const NodeId> nodes) {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (!sorted.empty()) MCE_CHECK_LT(sorted.back(), g.num_nodes());

  std::vector<uint64_t> offsets(sorted.size() + 1, 0);
  std::vector<NodeId> staged;
  for (NodeId local_u = 0; local_u < sorted.size(); ++local_u) {
    AppendLocalRow(g.Neighbors(sorted[local_u]), sorted, &staged);
    offsets[local_u + 1] = staged.size();
  }
  // The storage charges capacity, so the CSR gets an exactly sized copy
  // rather than the growth slack of the staging vector.
  return InducedSubgraph{
      Graph::FromSortedCsr(std::move(offsets),
                           std::vector<NodeId>(staged.begin(), staged.end())),
      std::move(sorted)};
}

InducedSubgraph Induce(const Graph& g, std::span<const NodeId> sorted_nodes,
                       InduceScratch* scratch) {
  std::vector<NodeId>& slot = scratch->slot;
  MCE_CHECK_EQ(slot.size(), g.num_nodes());
  const NodeId k = static_cast<NodeId>(sorted_nodes.size());
  for (NodeId i = 0; i < k; ++i) {
    MCE_CHECK_LT(sorted_nodes[i], g.num_nodes());
    MCE_DCHECK(i == 0 || sorted_nodes[i - 1] < sorted_nodes[i]);
    slot[sorted_nodes[i]] = i;
  }

  std::vector<NodeId>& staged = scratch->adjacency;
  staged.clear();
  std::vector<uint64_t> offsets(k + 1, 0);
  for (NodeId local_u = 0; local_u < k; ++local_u) {
    for (NodeId w : g.Neighbors(sorted_nodes[local_u])) {
      const NodeId local_w = slot[w];
      if (local_w != kEmptySlot) staged.push_back(local_w);
    }
    offsets[local_u + 1] = staged.size();
  }
  for (NodeId v : sorted_nodes) slot[v] = kEmptySlot;

  return InducedSubgraph{
      Graph::FromSortedCsr(std::move(offsets),
                           std::vector<NodeId>(staged.begin(), staged.end())),
      std::vector<NodeId>(sorted_nodes.begin(), sorted_nodes.end())};
}

std::vector<NodeId> ToParentIds(const InducedSubgraph& sub,
                                std::span<const NodeId> nodes) {
  std::vector<NodeId> out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) {
    MCE_CHECK_LT(v, sub.to_parent.size());
    out.push_back(sub.to_parent[v]);
  }
  return out;
}

}  // namespace mce
