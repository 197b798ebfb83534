#include "core/max_clique_finder.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/timer.h"

namespace mce {

MaxCliqueFinder::MaxCliqueFinder(Options options)
    : options_(std::move(options)), paper_tree_(decision::PaperDecisionTree()) {}

Result<uint32_t> MaxCliqueFinder::ResolveBlockSize(const Graph& g) const {
  if (options_.block_size > 0) return options_.block_size;
  if (!(options_.block_size_ratio > 0.0) || options_.block_size_ratio > 1.0) {
    return Status::InvalidArgument(
        "block_size_ratio must be in (0, 1] when block_size is 0");
  }
  const uint32_t d = g.MaxDegree();
  const uint32_t m = static_cast<uint32_t>(
      std::ceil(options_.block_size_ratio * static_cast<double>(d)));
  return std::max<uint32_t>(2, m);
}

Result<FindResult> MaxCliqueFinder::Find(const Graph& g) const {
  MCE_ASSIGN_OR_RETURN(uint32_t m, ResolveBlockSize(g));
  if (options_.pipeline.min_adjacency == 0) {
    return Status::InvalidArgument("min_adjacency must be >= 1");
  }
  if (options_.simulate_cluster && options_.cluster.num_workers < 1) {
    return Status::InvalidArgument("cluster.num_workers must be >= 1");
  }

  decomp::FindMaxCliquesOptions pipeline = options_.pipeline;
  pipeline.max_block_size = m;
  if (!options_.use_decision_tree) {
    pipeline.tree = nullptr;
  } else if (pipeline.tree == nullptr) {
    pipeline.tree = &paper_tree_;
  }

  FindResult out;
  out.effective_block_size = m;
  const Timer wall;

  if (options_.simulate_cluster) {
    dist::DistributedResult dist_result =
        dist::RunDistributedMce(g, std::move(pipeline), options_.cluster);
    ClusterSummary summary;
    summary.workers = options_.cluster.num_workers;
    summary.makespan_seconds = dist_result.TotalSeconds();
    summary.analysis_speedup = dist_result.AnalysisSpeedup();
    summary.compute_speedup = dist_result.AnalysisComputeSpeedup();
    for (const dist::DistributedLevel& level : dist_result.levels) {
      summary.max_level_skew =
          std::max(summary.max_level_skew, level.simulation.Skew());
      for (const dist::WorkerTimeline& w : level.simulation.workers) {
        summary.bytes_shipped += w.bytes_received;
      }
    }
    out.cluster = summary;
    out.stats = ComputeRunStats(dist_result.algorithm);
    out.levels = std::move(dist_result.algorithm.levels);
    out.origin_level = std::move(dist_result.algorithm.origin_level);
    out.cliques = std::move(dist_result.algorithm.cliques);
  } else {
    decomp::FindMaxCliquesResult result = decomp::FindMaxCliques(g, pipeline);
    out.stats = ComputeRunStats(result);
    out.levels = std::move(result.levels);
    out.origin_level = std::move(result.origin_level);
    out.cliques = std::move(result.cliques);
  }
  out.stats.wall_seconds = wall.ElapsedSeconds();
  return out;
}

}  // namespace mce
