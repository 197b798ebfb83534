// Distributed FIND-MAX-CLIQUES: the full pipeline with the block-analysis
// phase placed on the simulated cluster.
//
// The clique output is byte-identical to the serial FindMaxCliques (the
// placement of block tasks cannot change which cliques exist); what the
// cluster adds is the timing dimension: per-level makespan, speedup, load
// skew, and communication volume under a chosen partitioning strategy.

#ifndef MCE_DIST_DISTRIBUTED_MCE_H_
#define MCE_DIST_DISTRIBUTED_MCE_H_

#include <vector>

#include "decomp/find_max_cliques.h"
#include "dist/cluster.h"
#include "graph/graph.h"

namespace mce::dist {

struct DistributedLevel {
  SimulationResult simulation;
  /// Simulated distributed decomposition time for this level: the measured
  /// serial CUT+BLOCKS time divided across workers plus the shared-FS read
  /// of the level's edge data (Section 6.2 splits the input across
  /// machines).
  double decompose_seconds = 0;
};

struct DistributedResult {
  /// The complete algorithmic result (cliques, per-level stats, fallback
  /// flag) — identical to the serial run.
  decomp::FindMaxCliquesResult algorithm;
  /// One simulation per recursion level, same order as algorithm.levels.
  std::vector<DistributedLevel> levels;

  /// End-to-end simulated wall time (decomposition + analysis makespans).
  double TotalSeconds() const;
  /// Serial-equivalent analysis time across all levels.
  double SerialAnalysisSeconds() const;
  /// Aggregate speedup of the analysis phase, communication included
  /// (can dip below 1 when tasks are tiny relative to network latency).
  double AnalysisSpeedup() const;
  /// Placement-quality speedup: compute time only, in [1, workers].
  double AnalysisComputeSpeedup() const;
};

/// Runs the engine picked by `options` and simulates each recursion
/// level's block tasks on `cluster`, fed by the engine's block observer
/// stream (the caller's options.block_observer, if set, still sees every
/// record). With a trace recorder resolved, the simulated placement is
/// replayed as kSimBlock spans on synthetic per-(worker, thread) lanes.
DistributedResult RunDistributedMce(const Graph& g,
                                    decomp::FindMaxCliquesOptions options,
                                    const ClusterConfig& cluster);

}  // namespace mce::dist

#endif  // MCE_DIST_DISTRIBUTED_MCE_H_
