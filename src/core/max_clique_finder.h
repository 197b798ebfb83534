// MaxCliqueFinder — the library's public entry point.
//
// Wraps the complete pipeline of the paper: two-level decomposition,
// decision-tree-driven per-block enumeration, hub recursion, Lemma 1
// filtering, and (optionally) the simulated distributed execution. Typical
// use:
//
//   mce::MaxCliqueFinder::Options options;
//   options.block_size_ratio = 0.5;   // m = 0.5 * max degree (paper's m/d)
//   mce::MaxCliqueFinder finder(options);
//   auto result = finder.Find(graph);
//   if (!result.ok()) { ... }
//   for (const mce::Clique& c : result->cliques.cliques()) { ... }

#ifndef MCE_CORE_MAX_CLIQUE_FINDER_H_
#define MCE_CORE_MAX_CLIQUE_FINDER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/run_stats.h"
#include "decision/decision_tree.h"
#include "decomp/find_max_cliques.h"
#include "dist/distributed_mce.h"
#include "graph/graph.h"
#include "util/status.h"

namespace mce {

/// Summary of the simulated distributed execution, present when
/// Options::simulate_cluster is set.
struct ClusterSummary {
  int workers = 0;
  double makespan_seconds = 0;  // end-to-end simulated wall time
  /// Analysis-phase speedup including communication (may dip below 1 on
  /// workloads whose tasks are tiny relative to the network latency).
  double analysis_speedup = 0;
  /// Placement-quality speedup (compute only), in [1, workers].
  double compute_speedup = 1.0;
  double max_level_skew = 1.0;
  uint64_t bytes_shipped = 0;
};

struct FindResult {
  /// All maximal cliques of the input graph.
  CliqueSet cliques;
  /// Parallel to cliques.cliques(): the recursion level that produced each
  /// clique (0 = contains a feasible node; >= 1 = hub-only).
  std::vector<uint32_t> origin_level;
  RunStats stats;
  std::vector<decomp::LevelStats> levels;
  /// The block bound m that was actually used.
  uint32_t effective_block_size = 0;
  std::optional<ClusterSummary> cluster;
};

class MaxCliqueFinder {
 public:
  struct Options {
    /// Block bound m, in nodes. 0 means "derive from block_size_ratio".
    uint32_t block_size = 0;
    /// When block_size == 0: m = max(2, ratio * max_degree(G)) — the m/d
    /// parameterization of Section 6. Must be in (0, 1] then.
    double block_size_ratio = 0.5;
    /// Choose the per-block enumerator with the Figure 3 decision tree
    /// (default) or with pipeline.fixed.
    bool use_decision_tree = true;
    /// Run the block-analysis phase on the simulated cluster and attach a
    /// ClusterSummary to the result.
    bool simulate_cluster = false;
    dist::ClusterConfig cluster;
    /// Every other pipeline knob — second-level decomposition, threads and
    /// executor, the reduction prepass, block splitting, memory budget and
    /// spilling, observability sinks, profiling — passed through to
    /// decomp::FindMaxCliques as is (see decomp::FindMaxCliquesOptions).
    /// Find() overrides only max_block_size (resolved from block_size /
    /// block_size_ratio) and tree: the paper's tree unless pipeline.tree
    /// names a custom (e.g. freshly trained) one, which is not owned and
    /// must outlive the finder; no tree when use_decision_tree is false.
    decomp::FindMaxCliquesOptions pipeline;
  };

  MaxCliqueFinder() : MaxCliqueFinder(Options()) {}
  explicit MaxCliqueFinder(Options options);

  /// Validates the options against `g` and runs the pipeline.
  Result<FindResult> Find(const Graph& g) const;

  /// The block bound that Find would use on `g` (after ratio resolution).
  Result<uint32_t> ResolveBlockSize(const Graph& g) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  decision::DecisionTree paper_tree_;
};

}  // namespace mce

#endif  // MCE_CORE_MAX_CLIQUE_FINDER_H_
