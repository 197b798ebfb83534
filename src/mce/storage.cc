#include "mce/storage.h"

#include <algorithm>

#include "util/gallop.h"

namespace mce {

const char* ToString(Algorithm a) {
  switch (a) {
    case Algorithm::kBKPivot:
      return "BKPivot";
    case Algorithm::kTomita:
      return "Tomita";
    case Algorithm::kEppstein:
      return "Eppstein";
    case Algorithm::kXPivot:
      return "XPivot";
    case Algorithm::kNaive:
      return "Naive";
  }
  return "?";
}

const char* ToString(StorageKind s) {
  switch (s) {
    case StorageKind::kAdjacencyList:
      return "Lists";
    case StorageKind::kMatrix:
      return "Matrix";
    case StorageKind::kBitset:
      return "BitSets";
  }
  return "?";
}

std::string ComboName(StorageKind s, Algorithm a) {
  return std::string(ToString(s)) + "/" + ToString(a);
}

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) return UINT64_MAX;
  return out;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return UINT64_MAX;
  return out;
}

uint64_t EstimateStorageBytes(uint64_t n, uint64_t m, StorageKind storage) {
  switch (storage) {
    case StorageKind::kAdjacencyList:
      return SaturatingAdd(SaturatingMul(SaturatingMul(2, m), sizeof(NodeId)),
                           SaturatingMul(SaturatingAdd(n, 1),
                                         sizeof(uint64_t)));
    case StorageKind::kMatrix:
      return SaturatingMul(n, n);
    case StorageKind::kBitset:
      return SaturatingMul(n, SaturatingMul(SaturatingAdd(n, 63) / 64, 8));
  }
  return 0;
}

namespace {

/// out += sorted intersection of sorted `a` and sorted `b`, galloping
/// through whichever side is much longer.
void IntersectSortedInto(std::span<const NodeId> a, std::span<const NodeId> b,
                         std::vector<NodeId>* out) {
  if (a.size() > b.size()) std::swap(a, b);
  const NodeId* sa = a.data();
  const NodeId* ea = sa + a.size();
  const NodeId* sb = b.data();
  const NodeId* eb = sb + b.size();
  if (b.size() > kGallopRatio * a.size()) {
    // Iterate the short side, gallop in the long one; the cursor only
    // moves forward, so total probing is near-logarithmic per element.
    for (const NodeId* it = sa; it != ea; ++it) {
      sb = GallopLowerBound(sb, eb, *it);
      if (sb == eb) return;
      if (*sb == *it) out->push_back(*it);
    }
    return;
  }
  while (sa != ea && sb != eb) {
    if (*sa < *sb) {
      ++sa;
    } else if (*sb < *sa) {
      ++sb;
    } else {
      out->push_back(*sa);
      ++sa;
      ++sb;
    }
  }
}

/// |a n b| for sorted a and b, galloping through whichever side is much
/// longer (same shape as IntersectSortedInto, without materializing).
size_t CountSortedIntersect(std::span<const NodeId> a,
                            std::span<const NodeId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  const NodeId* sa = a.data();
  const NodeId* ea = sa + a.size();
  const NodeId* sb = b.data();
  const NodeId* eb = sb + b.size();
  size_t count = 0;
  if (b.size() > kGallopRatio * a.size()) {
    for (const NodeId* it = sa; it != ea; ++it) {
      sb = GallopLowerBound(sb, eb, *it);
      if (sb == eb) return count;
      if (*sb == *it) ++count;
    }
    return count;
  }
  while (sa != ea && sb != eb) {
    if (*sa < *sb) {
      ++sa;
    } else if (*sb < *sa) {
      ++sb;
    } else {
      ++count;
      ++sa;
      ++sb;
    }
  }
  return count;
}

}  // namespace

void ListStorage::IntersectNeighbors(NodeId v, std::span<const NodeId> set,
                                     std::vector<NodeId>* out) const {
  out->clear();
  auto nbrs = g_->Neighbors(v);
  IntersectSortedInto(set, nbrs, out);
}

void ListStorage::IntersectNeighborsUnion(NodeId v, std::span<const NodeId> a,
                                          std::span<const NodeId> b,
                                          std::vector<NodeId>* out) const {
  out->clear();
  auto nbrs = g_->Neighbors(v);
  if (a.empty()) {
    IntersectSortedInto(b, nbrs, out);
    return;
  }
  if (b.empty()) {
    IntersectSortedInto(a, nbrs, out);
    return;
  }
  if (nbrs.size() > kGallopRatio * (a.size() + b.size())) {
    // The candidate pieces are much shorter than N(v) — the common shape
    // deep in the recursion, where few candidates survive but neighbor
    // lists keep their full length. Merge-walk a u b and gallop a
    // monotone cursor through the neighbor list.
    const NodeId* sa = a.data();
    const NodeId* ea = sa + a.size();
    const NodeId* sb = b.data();
    const NodeId* eb = sb + b.size();
    const NodeId* nb = nbrs.data();
    const NodeId* ne = nb + nbrs.size();
    while (sa != ea || sb != eb) {
      NodeId u;
      if (sb == eb || (sa != ea && *sa < *sb)) {
        u = *sa++;
      } else {
        u = *sb++;
      }
      nb = GallopLowerBound(nb, ne, u);
      if (nb == ne) return;
      if (*nb == u) out->push_back(u);
    }
    return;
  }
  if (a.size() + b.size() > kGallopRatio * nbrs.size()) {
    // N(v) is much shorter than the candidate pieces: walk the neighbors
    // and gallop a monotone cursor through each piece. Output follows
    // neighbor order, which is sorted; a and b are disjoint, so at most
    // one cursor matches.
    const NodeId* sa = a.data();
    const NodeId* ea = sa + a.size();
    const NodeId* sb = b.data();
    const NodeId* eb = sb + b.size();
    for (NodeId u : nbrs) {
      sa = GallopLowerBound(sa, ea, u);
      if (sa != ea && *sa == u) {
        out->push_back(u);
        continue;
      }
      sb = GallopLowerBound(sb, eb, u);
      if (sb != eb && *sb == u) out->push_back(u);
    }
    return;
  }
  // Comparable sizes: walk the neighbor list and advance a monotone
  // cursor in each piece past it. a and b are disjoint, so at most one
  // piece matches each neighbor; the skip loops are short and
  // predictable, unlike the min-select of a three-way merge.
  const NodeId* sa = a.data();
  const NodeId* ea = sa + a.size();
  const NodeId* sb = b.data();
  const NodeId* eb = sb + b.size();
  for (NodeId u : nbrs) {
    while (sa != ea && *sa < u) ++sa;
    if (sa != ea && *sa == u) {
      out->push_back(u);
      continue;
    }
    while (sb != eb && *sb < u) ++sb;
    if (sb != eb && *sb == u) {
      out->push_back(u);
    } else if (sa == ea && sb == eb) {
      return;
    }
  }
}

size_t ListStorage::CountNeighborsIn(NodeId v,
                                     std::span<const NodeId> set) const {
  return CountSortedIntersect(set, g_->Neighbors(v));
}

void ListStorage::PartitionByPivot(NodeId pivot, std::span<const NodeId> p,
                                   std::vector<NodeId>* kept,
                                   std::vector<NodeId>* ext) const {
  kept->clear();
  ext->clear();
  auto nbrs = g_->Neighbors(pivot);
  const NodeId* nb = nbrs.data();
  const NodeId* ne = nb + nbrs.size();
  for (NodeId v : p) {
    while (nb != ne && *nb < v) ++nb;
    if (nb != ne && *nb == v) {
      // The pivot is never its own neighbor, so it lands in ext.
      kept->push_back(v);
    } else {
      ext->push_back(v);
    }
  }
}

void MatrixStorage::Assign(const Graph& g) {
  matrix_.Assign(g);
  degree_.clear();
  degree_.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) degree_.push_back(g.Degree(v));
}

void MatrixStorage::IntersectNeighbors(NodeId v, std::span<const NodeId> set,
                                       std::vector<NodeId>* out) const {
  out->clear();
  for (NodeId u : set) {
    if (matrix_.Adjacent(v, u)) out->push_back(u);
  }
}

void MatrixStorage::IntersectNeighborsUnion(NodeId v,
                                            std::span<const NodeId> a,
                                            std::span<const NodeId> b,
                                            std::vector<NodeId>* out) const {
  // Merge-walk the disjoint sorted pieces so the output stays sorted.
  out->clear();
  const NodeId* sa = a.data();
  const NodeId* ea = sa + a.size();
  const NodeId* sb = b.data();
  const NodeId* eb = sb + b.size();
  while (sa != ea || sb != eb) {
    NodeId u;
    if (sb == eb || (sa != ea && *sa < *sb)) {
      u = *sa++;
    } else {
      u = *sb++;
    }
    if (matrix_.Adjacent(v, u)) out->push_back(u);
  }
}

size_t MatrixStorage::CountNeighborsIn(NodeId v,
                                       std::span<const NodeId> set) const {
  size_t count = 0;
  for (NodeId u : set) {
    if (matrix_.Adjacent(v, u)) ++count;
  }
  return count;
}

void MatrixStorage::PartitionByPivot(NodeId pivot, std::span<const NodeId> p,
                                     std::vector<NodeId>* kept,
                                     std::vector<NodeId>* ext) const {
  kept->clear();
  ext->clear();
  for (NodeId v : p) {
    if (v == pivot || !matrix_.Adjacent(pivot, v)) {
      ext->push_back(v);
    } else {
      kept->push_back(v);
    }
  }
}

}  // namespace mce
