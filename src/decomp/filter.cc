#include "decomp/filter.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"

namespace mce::decomp {

CliqueSet FilterContainedCliques(const CliqueSet& ch, const CliqueSet& cf) {
  // Index cf cliques by member vertex so each ch clique is only compared
  // against cliques sharing its first vertex.
  std::unordered_map<NodeId, std::vector<size_t>> by_vertex;
  NodeId max_id = 0;
  for (size_t i = 0; i < cf.size(); ++i) {
    for (NodeId v : cf.cliques()[i]) {
      by_vertex[v].push_back(i);
      max_id = std::max(max_id, v);
    }
  }
  for (const Clique& c : ch.cliques()) {
    for (NodeId v : c) max_id = std::max(max_id, v);
  }
  const size_t universe = static_cast<size_t>(max_id) + 1;

  // Each surviving comparison is a word-level Bitset::IsSubsetOf instead
  // of a per-element merge walk: the cf cliques are materialized as
  // bitsets once, and one grow-only scratch bitset holds the current ch
  // clique.
  std::vector<Bitset> cf_bits(cf.size());
  for (size_t i = 0; i < cf.size(); ++i) {
    cf_bits[i].Reinit(universe);
    for (NodeId v : cf.cliques()[i]) cf_bits[i].Set(v);
  }

  CliqueSet out;
  Bitset scratch;
  for (const Clique& c : ch.cliques()) {
    bool contained = false;
    if (!c.empty()) {
      auto it = by_vertex.find(c.front());
      if (it != by_vertex.end()) {
        scratch.Reinit(universe);
        for (NodeId v : c) scratch.Set(v);
        for (size_t candidate : it->second) {
          if (cf.cliques()[candidate].size() >= c.size() &&
              scratch.IsSubsetOf(cf_bits[candidate])) {
            contained = true;
            break;
          }
        }
      }
    }
    if (!contained) out.Add(c);
  }
  return out;
}

bool IsMaximalInGraph(const Graph& g, const Clique& clique) {
  if (clique.empty()) return g.num_nodes() == 0;
  return CommonNeighbors(g, clique).empty();
}

CliqueSet FilterNonMaximal(const Graph& g, const CliqueSet& cliques) {
  CliqueSet out;
  for (const Clique& c : cliques.cliques()) {
    if (IsMaximalInGraph(g, c)) out.Add(c);
  }
  return out;
}

LevelFilterIndex::LevelFilterIndex(const Graph& original,
                                   const Graph& level_graph,
                                   const std::vector<NodeId>& to_original,
                                   const reduce::ReductionMap* expansion,
                                   uint64_t headroom_bytes)
    : original_(&original) {
  const NodeId rows = level_graph.num_nodes();
  const uint64_t max_bytes =
      std::min(kMaxRowBytesPerGraphByte * level_graph.ResidentBytes(),
               headroom_bytes);
  const auto row_bytes = [rows](uint64_t columns) {
    return uint64_t{rows} * ((columns + 63) / 64) * sizeof(uint64_t);
  };
  const bool expand = expansion != nullptr && expansion->active();
  // Row r's class, in original ids; `*id` holds r's pipeline id.
  const auto members_of = [&](NodeId r, NodeId* id) {
    *id = to_original.empty() ? r : to_original[r];
    return expand ? expansion->ClassOf(*id) : std::span<const NodeId>(id, 1);
  };
  NodeId pipeline_id = 0;
  // Lower bounds on the columns, so that rows which cannot fit are
  // rejected before any build scratch exists: a singleton row holds every
  // neighbor of its vertex but the vertex itself, and without the prepass
  // every level vertex with a level neighbor lies in that neighbor's row.
  uint64_t min_columns = 0;
  NodeId linked = 0;
  for (NodeId r = 0; r < rows; ++r) {
    if (level_graph.Degree(r) > 0) ++linked;
    const std::span<const NodeId> members = members_of(r, &pipeline_id);
    if (members.size() == 1 && original.Degree(members[0]) > 0) {
      min_columns = std::max<uint64_t>(min_columns,
                                       original.Degree(members[0]) - 1);
    }
  }
  if (!expand) min_columns = std::max<uint64_t>(min_columns, linked);
  if (row_bytes(min_columns) > max_bytes) return;

  // Every row entry as one key: original id in the high half, row in the
  // low half.
  std::vector<uint64_t> keys;
  std::vector<NodeId> row_ids;
  std::vector<NodeId> common;
  std::vector<NodeId> next;
  for (NodeId r = 0; r < rows; ++r) {
    const std::span<const NodeId> members = members_of(r, &pipeline_id);
    MCE_DCHECK(!members.empty());
    std::span<const NodeId> row = original.Neighbors(members[0]);
    if (members.size() > 1) {
      // A twin class: intersect every member's neighbor list.
      common.assign(row.begin(), row.end());
      for (size_t i = 1; i < members.size() && !common.empty(); ++i) {
        const std::span<const NodeId> nbrs = original.Neighbors(members[i]);
        next.clear();
        std::set_intersection(common.begin(), common.end(), nbrs.begin(),
                              nbrs.end(), std::back_inserter(next));
        common.swap(next);
      }
      row = common;
    }
    // Members are never their own common neighbors (both lists sorted).
    row_ids.clear();
    std::set_difference(row.begin(), row.end(), members.begin(),
                        members.end(), std::back_inserter(row_ids));
    for (NodeId v : row_ids) keys.push_back(uint64_t{v} << 32 | r);
  }
  // Sorted by original id, the keys rank the columns in one pass.
  std::sort(keys.begin(), keys.end());
  size_t columns = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || (keys[i] >> 32) != (keys[i - 1] >> 32)) ++columns;
  }
  if (row_bytes(columns) > max_bytes) return;

  has_rows_ = true;
  num_rows_ = rows;
  num_columns_ = columns;
  words_ = (columns + 63) / 64;
  bits_.assign(static_cast<size_t>(rows) * words_, 0);
  size_t column = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && (keys[i] >> 32) != (keys[i - 1] >> 32)) ++column;
    const size_t r = static_cast<NodeId>(keys[i]);
    bits_[r * words_ + column / 64] |= uint64_t{1} << (column % 64);
  }
}

bool LevelFilterIndex::IsMaximal(std::span<const NodeId> level_ids,
                                 const Clique& original_ids) const {
  MCE_DCHECK(!level_ids.empty());
  if (!has_rows_) return IsMaximalInGraph(*original_, original_ids);
  const auto row = [this, level_ids](size_t i) {
    return bits_.data() + static_cast<size_t>(level_ids[i]) * words_;
  };
  const uint64_t* const first = row(0);
  const uint64_t* const second = level_ids.size() > 1 ? row(1) : first;
  // The AND of the first two rows seeds the block's nonzero words,
  // compacted into (value, word) pairs; every further row ANDs only the
  // survivors and drops the words that turn zero.
  constexpr size_t kBlockWords = 64;
  uint64_t live_bits[kBlockWords];
  uint32_t live_word[kBlockWords];
  for (size_t begin = 0; begin < words_; begin += kBlockWords) {
    const size_t end = std::min(words_, begin + kBlockWords);
    size_t live = 0;
    for (size_t w = begin; w < end; ++w) {
      const uint64_t x = first[w] & second[w];
      live_bits[live] = x;
      live_word[live] = static_cast<uint32_t>(w);
      live += x != 0;
    }
    for (size_t i = 2; live != 0 && i < level_ids.size(); ++i) {
      const uint64_t* const r = row(i);
      size_t kept = 0;
      for (size_t j = 0; j < live; ++j) {
        const uint64_t x = live_bits[j] & r[live_word[j]];
        live_bits[kept] = x;
        live_word[kept] = live_word[j];
        kept += x != 0;
      }
      live = kept;
    }
    if (live != 0) return false;
  }
  return true;
}

void ForEachCliqueInRange(std::span<const CliqueSink* const> sinks,
                          size_t begin, size_t end, const CliqueCallback& fn) {
  size_t done = 0;  // cliques covered by sinks walked so far
  for (const CliqueSink* sink : sinks) {
    const size_t sink_begin = done;
    done += sink->size();
    if (begin >= done) continue;
    if (end <= sink_begin) break;
    const size_t lo = begin > sink_begin ? begin - sink_begin : 0;
    const size_t hi = std::min(end - sink_begin, sink->size());
    sink->ForRange(lo, hi, fn);
  }
}

}  // namespace mce::decomp
