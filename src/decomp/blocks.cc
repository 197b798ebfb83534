#include "decomp/blocks.h"

#include <algorithm>
#include <limits>

#include "reduce/relabel.h"
#include "util/check.h"

namespace mce::decomp {

namespace {

/// Per-node state in BuildBlocksStreaming's workspace.
enum NodeState : uint8_t {
  kNotFeasible = 0,    // never a candidate or a kernel
  kFree = 1,           // feasible, not yet a kernel of any block
  kKernelHere = 2,     // kernel of the block being grown
  kKernelEarlier = 3,  // kernel of an already emitted block
};

/// In-band kernel-adjacency value of a candidate that cannot fit the
/// block being grown.
constexpr uint32_t kInfeasibleHere = std::numeric_limits<uint32_t>::max();

/// Sorts seeds according to the policy; ties break toward the smaller id so
/// decomposition is deterministic.
std::vector<NodeId> OrderSeeds(const Graph& g,
                               const std::vector<NodeId>& feasible,
                               SeedPolicy policy) {
  std::vector<NodeId> seeds = feasible;
  switch (policy) {
    case SeedPolicy::kLowestDegree:
      std::stable_sort(seeds.begin(), seeds.end(), [&g](NodeId a, NodeId b) {
        if (g.Degree(a) != g.Degree(b)) return g.Degree(a) < g.Degree(b);
        return a < b;
      });
      break;
    case SeedPolicy::kHighestDegree:
      std::stable_sort(seeds.begin(), seeds.end(), [&g](NodeId a, NodeId b) {
        if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
        return a < b;
      });
      break;
    case SeedPolicy::kFirstId:
      std::sort(seeds.begin(), seeds.end());
      break;
  }
  return seeds;
}

}  // namespace

std::vector<Block> BuildBlocks(const Graph& g,
                               const std::vector<NodeId>& feasible,
                               const BlocksOptions& options) {
  std::vector<Block> blocks;
  BuildBlocksStreaming(g, feasible, options,
                       [&blocks](Block&& b) { blocks.push_back(std::move(b)); });
  return blocks;
}

void BuildBlocksStreaming(const Graph& g, const std::vector<NodeId>& feasible,
                          const BlocksOptions& options,
                          const BlockCallback& emit) {
  const uint32_t m = options.max_block_size;
  MCE_CHECK_GE(m, 1u);

  // One dense workspace for the whole call, sized to the level graph. A
  // block touches only its members' entries (candidates and kernels are
  // members too) and resets exactly those before the next seed, so growth
  // allocates nothing per seed.
  std::vector<uint8_t> state(g.num_nodes(), kNotFeasible);
  for (NodeId v : feasible) {
    MCE_CHECK(static_cast<uint64_t>(g.Degree(v)) + 1 <= m);
    state[v] = kFree;
  }
  // Block membership (K u N(K)) lives in the slot array: any non-empty
  // value marks a member until Induce overwrites it with local ids.
  InduceScratch scratch(g.num_nodes());
  std::vector<NodeId>& slot = scratch.slot;
  // Kernel-adjacency count of each candidate border node: 0 until it first
  // joins the candidate list, kInfeasibleHere once its absorption
  // overflowed m. The block only grows, so |K u {n} u N(K u {n})| is
  // non-decreasing: an infeasible candidate stays infeasible for this
  // block and never returns to the candidate pool (it will seed or join a
  // later block instead).
  std::vector<uint32_t> kernel_adjacency(g.num_nodes(), 0);
  std::vector<NodeId> members;     // K u N(K), parent ids
  std::vector<NodeId> candidates;  // may hold stale entries until compacted
  std::vector<NodeId> kernel;      // K, parent ids

  auto add_member = [&](NodeId v) {
    if (slot[v] != kEmptySlot) return;
    slot[v] = 0;
    members.push_back(v);
  };
  auto promote = [&](NodeId n) {
    state[n] = kKernelHere;
    kernel.push_back(n);
    add_member(n);
    for (NodeId w : g.Neighbors(n)) {
      add_member(w);
      if (state[w] == kFree && kernel_adjacency[w] != kInfeasibleHere &&
          kernel_adjacency[w]++ == 0) {
        candidates.push_back(w);
      }
    }
  };

  for (NodeId seed : OrderSeeds(g, feasible, options.seed_policy)) {
    if (state[seed] != kFree) continue;
    promote(seed);

    for (;;) {
      // select(N_f n H): the candidate with the most kernel adjacencies,
      // ties to the smaller id. The scan drops candidates promoted or
      // found infeasible since the last one.
      //
      // Cost: each promotion rescans every live candidate with two lookups
      // into the node arrays; hubs keep hundreds live on power-law inputs
      // (powerlaw-reduce: 37M steps for 149,765 promotions). Packed
      // in-place keys were faster there but read 5% slower end to end on
      // fb-blocks, so this scan stays (DESIGN.md §7).
      NodeId best = kInvalidNode;
      uint32_t best_adj = 0;
      size_t live = 0;
      for (NodeId c : candidates) {
        const uint32_t adj = kernel_adjacency[c];
        if (state[c] != kFree || adj == kInfeasibleHere) continue;
        candidates[live++] = c;
        if (adj > best_adj || (adj == best_adj && c < best)) {
          best = c;
          best_adj = adj;
        }
      }
      candidates.resize(live);
      if (best == kInvalidNode) break;                    // no border left
      if (best_adj < options.min_adjacency) break;        // threshold stop
      // isfeasible(K u {best}): |K u {best} u N(K u {best})| <= m.
      const size_t room = m - members.size();
      size_t added = 0;
      for (NodeId w : g.Neighbors(best)) {
        if (slot[w] == kEmptySlot && ++added > room) break;
      }
      if (added > room) {
        // Algorithm 3 guards absorption per candidate: this one can never
        // fit, but a candidate with a smaller un-absorbed neighborhood
        // still may — skip it and keep scanning.
        kernel_adjacency[best] = kInfeasibleHere;
        continue;
      }
      promote(best);
    }

    // Materialize the block; Induce leaves every slot empty again.
    std::sort(members.begin(), members.end());
    Block block;
    block.subgraph = Induce(g, members, &scratch);
    block.roles.resize(members.size());
    block.kernel_local.reserve(kernel.size());
    for (NodeId local = 0; local < members.size(); ++local) {
      switch (state[members[local]]) {
        case kKernelHere:
          block.roles[local] = NodeRole::kKernel;
          block.kernel_local.push_back(local);
          break;
        case kKernelEarlier:
          block.roles[local] = NodeRole::kVisited;
          break;
        default:
          block.roles[local] = NodeRole::kBorder;
      }
    }
    for (NodeId v : members) kernel_adjacency[v] = 0;
    for (NodeId v : kernel) state[v] = kKernelEarlier;
    members.clear();
    candidates.clear();
    kernel.clear();
    if (options.degeneracy_relabel) reduce::DegeneracyRelabelBlock(&block);
    emit(std::move(block));
  }
}

}  // namespace mce::decomp
