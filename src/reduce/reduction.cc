#include "reduce/reduction.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/check.h"
#include "util/timer.h"

namespace mce::reduce {

bool ReductionMap::ExpandClique(std::span<const NodeId> reduced,
                                Clique* out) const {
  out->clear();
  if (!active_) {
    out->assign(reduced.begin(), reduced.end());
    std::sort(out->begin(), out->end());
    return true;
  }
  for (NodeId r : reduced) {
    const std::span<const NodeId> members = ClassOf(r);
    out->insert(out->end(), members.begin(), members.end());
  }
  // The reduced→original relabeling is monotone and most classes are
  // singletons, so expansions of already-sorted cliques usually come out
  // sorted — checking is far cheaper than unconditionally sorting on
  // every enumerated clique.
  if (!std::is_sorted(out->begin(), out->end())) {
    std::sort(out->begin(), out->end());
  }
  return cover_pool_.empty() || !Covered(*out);
}

bool ReductionMap::Covered(std::span<const NodeId> c) const {
  if (c.empty()) return false;
  // Fast path: a containing clique would cover every member, so one
  // uncovered vertex rules containment out without touching the index.
  for (NodeId v : c) {
    if (cover_count_[v] == 0) return false;
  }
  // Any member's chain suffices (a superset contains all members); walk
  // the chain of the member appearing in the fewest trivial cliques.
  NodeId best = c[0];
  for (NodeId v : c) {
    if (cover_count_[v] < cover_count_[best]) best = v;
  }
  for (uint32_t e = cover_head_[best]; e != kNoCoverEntry;
       e = cover_pool_[e].second) {
    const std::span<const NodeId> t = TrivialClique(cover_pool_[e].first);
    if (t.size() >= c.size() &&
        std::includes(t.begin(), t.end(), c.begin(), c.end())) {
      return true;
    }
  }
  return false;
}

namespace {

/// splitmix64 finalizer; per-vertex mixing for the twin hashes.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-independent hash of the closed neighborhood {v} ∪ nbrs — the
/// mutable adjacency rows are unsorted (swap removal), so the key must be
/// commutative; candidate groups are verified on sorted copies anyway.
uint64_t HashClosed(std::span<const NodeId> nbrs, NodeId v) {
  uint64_t sum = Mix(v + 1);
  uint64_t xr = sum;
  for (NodeId u : nbrs) {
    const uint64_t h = Mix(u + 1);
    sum += h;
    xr ^= h;
  }
  return Mix(sum ^ (xr * 0xff51afd7ed558ccdull) ^ (nbrs.size() + 1));
}

}  // namespace

/// The fixed-point loop. Owns no storage: scratch lives in the workspace,
/// results are written into the ReductionResult.
///
/// The reducer first pre-scans the immutable input: which vertices a rule
/// could fire on right now (degree <= 1, simplicial within the fold cap,
/// or a true-twin pair). When the answer is "none" the input is already a
/// fixed point and the run ends without copying the adjacency or building
/// a result graph — the prepass on an irreducible graph costs one
/// read-only pass. Otherwise the candidates seed the worklist, so the
/// mutable phase never re-derives what the scan already proved.
class Reducer {
 public:
  Reducer(const Graph& g, const ReduceOptions& options, ReduceWorkspace& ws,
          ReductionResult& out)
      : g_(g), options_(options), ws_(ws), out_(out) {}

  void Run() {
    Timer timer;
    const NodeId n = g_.num_nodes();
    ReductionStats& stats = out_.stats;
    stats.enabled = true;

    if (!PreScan()) {
      out_.unchanged = true;
      stats.seconds = timer.ElapsedSeconds();
      return;
    }

    Reset(n);
    for (NodeId v : ws_.candidates) Push(v);
    for (;;) {
      const bool removed = DrainWorklist();
      const bool merged = MergeTwins();
      if (removed || merged) ++stats.rounds;
      // DrainWorklist is exhaustive — every vertex whose neighborhood
      // changed was re-queued and re-tested — so once a twin scan of the
      // drained state finds nothing, the state is a fixed point; no
      // confirming extra iteration is needed.
      if (!merged) break;
      if (options_.max_rounds != 0 && stats.rounds >= options_.max_rounds) {
        // Finish the capped round's removals: the anchor rule relies on R
        // keeping no vertex of degree <= 1 (see the header comment).
        DrainWorklist();
        break;
      }
    }

    BuildResult(n);
    stats.seconds = timer.ElapsedSeconds();
  }

 private:
  // --- Read-only pre-scan over the input graph. ---------------------------

  bool AdjacentInInput(NodeId u, NodeId w) const {
    const std::span<const NodeId> row = g_.Neighbors(u);
    return std::binary_search(row.begin(), row.end(), w);
  }

  bool InputNeighborhoodIsClique(std::span<const NodeId> nbrs) const {
    // Cheap reject first: the extreme ids of a sorted row are the pair
    // most likely to be non-adjacent in banded/ring-like graphs.
    if (!AdjacentInInput(nbrs.front(), nbrs.back())) return false;
    for (size_t i = 0; i + 1 < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        if (!AdjacentInInput(nbrs[i], nbrs[j])) return false;
      }
    }
    return true;
  }

  /// Sorted closed neighborhood in the (sorted-row) input graph.
  void BuildClosedInInput(NodeId v, std::vector<NodeId>& out) const {
    const std::span<const NodeId> nbrs = g_.Neighbors(v);
    out.clear();
    auto pos = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    out.insert(out.end(), nbrs.begin(), pos);
    out.push_back(v);
    out.insert(out.end(), pos, nbrs.end());
  }

  bool ClosedEqualInInput(NodeId v, NodeId w) {
    if (g_.Neighbors(v).size() != g_.Neighbors(w).size()) return false;
    BuildClosedInInput(v, ws_.scratch);
    BuildClosedInInput(w, ws_.merge_scratch);
    return ws_.scratch == ws_.merge_scratch;
  }

  /// True iff some input vertex pair has identical closed neighborhoods.
  /// True twins are necessarily adjacent (v ∈ N[v] = N[u]), so scanning
  /// each edge with a cheap per-vertex signature filter — equal degree,
  /// equal closed-id sum — finds a pair in O(n + m) plus the rare full
  /// compares on signature collisions.
  bool InputHasTwinPair() {
    const NodeId n = g_.num_nodes();
    if (n < 2) return false;
    if (ws_.twin_hash.size() < n) ws_.twin_hash.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      uint64_t sig = v;
      for (NodeId u : g_.Neighbors(v)) sig += u;
      ws_.twin_hash[v] = sig;
    }
    for (NodeId v = 0; v < n; ++v) {
      const std::span<const NodeId> nbrs = g_.Neighbors(v);
      for (NodeId u : nbrs) {
        if (u <= v) continue;
        if (ws_.twin_hash[u] == ws_.twin_hash[v] &&
            nbrs.size() == g_.Neighbors(u).size() &&
            ClosedEqualInInput(v, u)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Collects every vertex the simplicial rule fires on right now into
  /// ws_.candidates; when none exists, falls through to the twin-pair
  /// existence check. Returns false iff the graph is already irreducible.
  bool PreScan() {
    ws_.candidates.clear();
    const NodeId n = g_.num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      const std::span<const NodeId> nbrs = g_.Neighbors(v);
      if (nbrs.size() <= 1) {
        ws_.candidates.push_back(v);
        continue;
      }
      if (nbrs.size() <= options_.max_fold_degree &&
          InputNeighborhoodIsClique(nbrs)) {
        ws_.candidates.push_back(v);
      }
    }
    // With simplicial seeds the full run happens anyway (its twin pass
    // covers twins); only a seedless graph needs the existence probe.
    if (!ws_.candidates.empty()) return true;
    return InputHasTwinPair();
  }

  // --- Mutable flat-CSR phase. --------------------------------------------

  void Reset(NodeId n) {
    ws_.row_begin.resize(static_cast<size_t>(n) + 1);
    ws_.deg.resize(n);
    ws_.lists.clear();
    for (NodeId v = 0; v < n; ++v) {
      ws_.row_begin[v] = static_cast<uint32_t>(ws_.lists.size());
      const std::span<const NodeId> nbrs = g_.Neighbors(v);
      ws_.lists.insert(ws_.lists.end(), nbrs.begin(), nbrs.end());
      ws_.deg[v] = static_cast<uint32_t>(nbrs.size());
    }
    ws_.row_begin[n] = static_cast<uint32_t>(ws_.lists.size());
    // Reverse-arc positions in O(m): sweeping vertices in ascending order
    // visits u's in-arcs in ascending source order, which is exactly u's
    // sorted row order — so a per-row cursor pairs each arc with its
    // reverse without any searching.
    ws_.mirror.resize(ws_.lists.size());
    ws_.cursor.assign(ws_.row_begin.begin(), ws_.row_begin.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t begin = ws_.row_begin[v];
      const uint32_t end = ws_.row_begin[v + 1];
      for (uint32_t p = begin; p < end; ++p) {
        ws_.mirror[p] = ws_.cursor[ws_.lists[p]]++;
      }
    }
    ws_.alive.assign(n, 1);
    ws_.anchored.assign(n, 0);
    ws_.queued.assign(n, 0);
    ws_.queue.clear();
    if (ws_.cls.size() < n) ws_.cls.resize(n);
    for (NodeId v = 0; v < n; ++v) ws_.cls[v].clear();
    ReductionMap& map = out_.map;
    map.cover_count_.assign(n, 0);
    map.cover_head_.assign(n, ReductionMap::kNoCoverEntry);
    map.cover_pool_.clear();
  }

  std::span<const NodeId> Row(NodeId v) const {
    return {ws_.lists.data() + ws_.row_begin[v], ws_.deg[v]};
  }

  /// Membership by scanning the lower-degree endpoint's (unsorted) row.
  bool Adjacent(NodeId u, NodeId w) const {
    if (ws_.deg[w] < ws_.deg[u]) std::swap(u, w);
    for (NodeId x : Row(u)) {
      if (x == w) return true;
    }
    return false;
  }

  /// Drops the arc at position `j` of u's row: swap with the last active
  /// entry and repoint the moved arc's reverse. O(1).
  void RemoveArcAt(NodeId u, uint32_t j) {
    const uint32_t e = ws_.row_begin[u] + ws_.deg[u] - 1;
    MCE_DCHECK_LE(ws_.row_begin[u], j);
    MCE_DCHECK_LE(j, e);
    if (j != e) {
      ws_.lists[j] = ws_.lists[e];
      ws_.mirror[j] = ws_.mirror[e];
      ws_.mirror[ws_.mirror[j]] = j;
    }
    --ws_.deg[u];
  }

  /// Detaches `v` from the graph: every incident arc and its reverse go
  /// away (O(deg(v)) via the mirror index), the neighbors re-queue.
  void DetachVertex(NodeId v) {
    const uint32_t begin = ws_.row_begin[v];
    const uint32_t end = begin + ws_.deg[v];
    for (uint32_t p = begin; p < end; ++p) {
      const NodeId u = ws_.lists[p];
      MCE_DCHECK_EQ(ws_.lists[ws_.mirror[p]], v);
      RemoveArcAt(u, ws_.mirror[p]);
      ++out_.stats.edges_removed;
      Push(u);
    }
    ws_.deg[v] = 0;
    ws_.alive[v] = 0;
  }

  void Push(NodeId v) {
    if (ws_.alive[v] == 0 || ws_.queued[v] != 0) return;
    ws_.queued[v] = 1;
    ws_.queue.push_back(v);
  }

  /// True iff the current neighborhood of `v` is pairwise adjacent.
  bool NeighborhoodIsClique(NodeId v) const {
    const std::span<const NodeId> nbrs = Row(v);
    for (size_t i = 0; i + 1 < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        if (!Adjacent(nbrs[i], nbrs[j])) return false;
      }
    }
    return true;
  }

  /// Appends the expansion class of `v` ({v} plus its merged members) to
  /// the scratch candidate.
  void AppendClass(NodeId v) {
    ws_.scratch.push_back(v);
    ws_.scratch.insert(ws_.scratch.end(), ws_.cls[v].begin(),
                       ws_.cls[v].end());
  }

  /// Emits the sorted original-id candidate in ws_.scratch, built for
  /// removing `v` at degree `deg`, unless a previously emitted trivial
  /// clique contains it. Only fold cliques (deg >= 2) enter the cover
  /// index; a degree-1 removal instead anchors its surviving neighbor,
  /// whose degree-0 candidate is the only one it can cover.
  void EmitOrSuppress(NodeId v, uint32_t deg) {
    ReductionMap& map = out_.map;
    if (deg == 1) ws_.anchored[Row(v)[0]] = 1;
    if ((deg == 0 && ws_.anchored[v] != 0) || map.Covered(ws_.scratch)) {
      ++out_.stats.suppressed_cliques;
      return;
    }
    const auto index = static_cast<uint32_t>(map.trivial_ends_.size());
    map.trivial_ids_.insert(map.trivial_ids_.end(), ws_.scratch.begin(),
                            ws_.scratch.end());
    map.trivial_ends_.push_back(map.trivial_ids_.size());
    ++out_.stats.trivial_cliques;
    if (deg <= 1) return;
    for (NodeId w : ws_.scratch) {
      if (map.cover_count_[w] < 255) ++map.cover_count_[w];
      map.cover_pool_.emplace_back(index, map.cover_head_[w]);
      map.cover_head_[w] = static_cast<uint32_t>(map.cover_pool_.size() - 1);
    }
  }

  /// Simplicial elimination (degree-0/1 plus the capped dominated fold)
  /// until the worklist drains. Returns true if any vertex was removed.
  bool DrainWorklist() {
    bool changed = false;
    while (!ws_.queue.empty()) {
      const NodeId v = ws_.queue.back();
      ws_.queue.pop_back();
      ws_.queued[v] = 0;
      if (ws_.alive[v] == 0) continue;
      const uint32_t deg = ws_.deg[v];
      if (deg >= 2 &&
          (deg > options_.max_fold_degree || !NeighborhoodIsClique(v))) {
        continue;
      }
      // N_R[v] is a clique of R; its expansion is the unique maximal
      // clique of R containing v, and a clique of G.
      ws_.scratch.clear();
      AppendClass(v);
      for (NodeId u : Row(v)) AppendClass(u);
      std::sort(ws_.scratch.begin(), ws_.scratch.end());
      EmitOrSuppress(v, deg);

      ReductionStats& stats = out_.stats;
      if (deg == 0) {
        ++stats.isolated_removed;
      } else if (deg == 1) {
        ++stats.degree1_removed;
      } else {
        ++stats.dominated_removed;
      }
      DetachVertex(v);
      ++stats.vertices_removed;
      changed = true;
    }
    return changed;
  }

  /// Builds the sorted closed neighborhood of `v` into `out`.
  void BuildClosed(NodeId v, std::vector<NodeId>& out) const {
    const std::span<const NodeId> nbrs = Row(v);
    out.assign(nbrs.begin(), nbrs.end());
    out.push_back(v);
    std::sort(out.begin(), out.end());
  }

  /// One true-twin pass: groups alive vertices by closed-neighborhood
  /// hash, verifies equality, and merges each group into its smallest
  /// member. Returns true if anything merged.
  bool MergeTwins() {
    const NodeId n = g_.num_nodes();
    ws_.twin_keys.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (ws_.alive[v] == 0) continue;
      ws_.twin_keys.emplace_back(HashClosed(Row(v), v), v);
    }
    std::sort(ws_.twin_keys.begin(), ws_.twin_keys.end());

    bool changed = false;
    size_t i = 0;
    while (i < ws_.twin_keys.size()) {
      size_t j = i + 1;
      while (j < ws_.twin_keys.size() &&
             ws_.twin_keys[j].first == ws_.twin_keys[i].first) {
        ++j;
      }
      if (j - i > 1) changed = MergeTwinRun(i, j) || changed;
      i = j;
    }
    return changed;
  }

  /// Verifies and merges the twin candidates in twin_keys[begin, end)
  /// (equal hash). Group members are compared against the pre-merge state
  /// — the representative's closed neighborhood is captured before any
  /// merge mutates it.
  bool MergeTwinRun(size_t begin, size_t end) {
    bool changed = false;
    for (size_t i = begin; i < end; ++i) {
      const NodeId rep = ws_.twin_keys[i].second;
      if (ws_.alive[rep] == 0) continue;
      // merge_scratch holds closed(rep); scratch is per-candidate.
      BuildClosed(rep, ws_.merge_scratch);
      // Collect the whole equivalence group against the pre-merge
      // neighborhoods, then merge (merging u into rep shrinks every
      // remaining twin's neighborhood by u, so interleaving comparisons
      // with merges would miss the rest of the group this round).
      size_t group_size = 0;
      for (size_t j = i + 1; j < end; ++j) {
        const NodeId u = ws_.twin_keys[j].second;
        if (ws_.alive[u] == 0) continue;
        BuildClosed(u, ws_.scratch);
        if (ws_.scratch == ws_.merge_scratch) {
          // Tag group members by rotating them to the front slots after i.
          std::swap(ws_.twin_keys[i + 1 + group_size], ws_.twin_keys[j]);
          ++group_size;
        }
      }
      for (size_t j = 0; j < group_size; ++j) {
        MergeTwin(rep, ws_.twin_keys[i + 1 + j].second);
        changed = true;
      }
      i += group_size;
    }
    return changed;
  }

  /// Merges twin `u` into representative `rep`: rep's expansion class
  /// absorbs u's, and u leaves the reduced graph.
  void MergeTwin(NodeId rep, NodeId u) {
    std::vector<NodeId>& rep_cls = ws_.cls[rep];
    std::vector<NodeId>& u_cls = ws_.cls[u];
    ws_.merge_scratch.clear();
    std::merge(u_cls.begin(), u_cls.end(), rep_cls.begin(), rep_cls.end(),
               std::back_inserter(ws_.merge_scratch));
    auto pos = std::lower_bound(ws_.merge_scratch.begin(),
                                ws_.merge_scratch.end(), u);
    ws_.merge_scratch.insert(pos, u);
    rep_cls.swap(ws_.merge_scratch);
    u_cls.clear();
    // rep's class grew past any degree-1 clique that anchored it.
    ws_.anchored[rep] = 0;

    DetachVertex(u);
    ++out_.stats.twins_merged;
    ++out_.stats.vertices_removed;
  }

  /// Compacts the surviving vertices into R and freezes the map.
  void BuildResult(NodeId n) {
    ReductionMap& map = out_.map;
    map.active_ = true;
    map.class_ids_.clear();
    map.class_ends_.clear();

    NodeId next = 0;
    std::vector<NodeId>& new_id = ws_.merge_scratch;
    new_id.assign(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      if (ws_.alive[v] != 0) new_id[v] = next++;
    }

    // New ids ascend with the old ones, so remapping a row and sorting it
    // yields the final CSR layout directly — no GraphBuilder round trip.
    std::vector<uint64_t> offsets;
    std::vector<NodeId> adjacency;
    offsets.reserve(static_cast<size_t>(next) + 1);
    for (NodeId v = 0; v < n; ++v) {
      if (ws_.alive[v] == 0) continue;
      // Class = {v} plus the merged twins; twin representatives are the
      // smallest id of their group, so v leads its sorted class.
      map.class_ids_.push_back(v);
      map.class_ids_.insert(map.class_ids_.end(), ws_.cls[v].begin(),
                            ws_.cls[v].end());
      map.class_ends_.push_back(map.class_ids_.size());
      offsets.push_back(adjacency.size());
      const size_t row_start = adjacency.size();
      for (NodeId u : Row(v)) adjacency.push_back(new_id[u]);
      std::sort(adjacency.begin() + row_start, adjacency.end());
    }
    offsets.push_back(adjacency.size());
    out_.graph = Graph::FromSortedCsr(std::move(offsets),
                                      std::move(adjacency));
  }

  const Graph& g_;
  const ReduceOptions& options_;
  ReduceWorkspace& ws_;
  ReductionResult& out_;
};

ReductionResult ReduceGraph(const Graph& g, const ReduceOptions& options,
                            ReduceWorkspace* workspace) {
  MCE_CHECK_GE(options.max_fold_degree, 1u);
  ReductionResult out;
  ReduceWorkspace local;
  Reducer reducer(g, options, workspace != nullptr ? *workspace : local, out);
  reducer.Run();
  return out;
}

}  // namespace mce::reduce
