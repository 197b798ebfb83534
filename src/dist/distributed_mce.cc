#include "dist/distributed_mce.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/task_graph.h"
#include "obs/trace.h"

namespace mce::dist {

double DistributedResult::TotalSeconds() const {
  double total = 0;
  for (const DistributedLevel& l : levels) {
    total += l.decompose_seconds + l.simulation.makespan_seconds;
  }
  return total;
}

double DistributedResult::SerialAnalysisSeconds() const {
  double total = 0;
  for (const DistributedLevel& l : levels) {
    total += l.simulation.total_compute_seconds;
  }
  return total;
}

double DistributedResult::AnalysisSpeedup() const {
  double makespan = 0;
  for (const DistributedLevel& l : levels) {
    makespan += l.simulation.makespan_seconds;
  }
  double serial = SerialAnalysisSeconds();
  return makespan > 0 ? serial / makespan : 1.0;
}

double DistributedResult::AnalysisComputeSpeedup() const {
  double busiest = 0;
  double serial = 0;
  for (const DistributedLevel& l : levels) {
    double level_busiest = 0;
    for (const WorkerTimeline& w : l.simulation.workers) {
      level_busiest = std::max(level_busiest, w.compute_seconds);
    }
    busiest += level_busiest;
    serial += l.simulation.total_compute_seconds;
  }
  return busiest > 0 ? serial / busiest : 1.0;
}

DistributedResult RunDistributedMce(const Graph& g,
                                    decomp::FindMaxCliquesOptions options,
                                    const ClusterConfig& cluster) {
  // The engine delivers block records on this thread in block order, so
  // plain vectors suffice. The caller's observer (if any) still sees
  // every record.
  std::vector<std::vector<decomp::BlockTaskRecord>> records;  // per level
  auto user_observer = std::move(options.block_observer);
  options.block_observer = [&records, user = std::move(user_observer)](
                               const decomp::BlockTaskRecord& r) {
    if (records.size() <= r.level) records.resize(r.level + 1);
    records[r.level].push_back(r);
    if (user) user(r);
  };

  DistributedResult out;
  out.algorithm = decomp::FindMaxCliques(g, options);
  const std::vector<decomp::LevelStats>& levels = out.algorithm.levels;
  records.resize(levels.size());
  for (size_t level = 0; level < levels.size(); ++level) {
    std::vector<Task> tasks;
    tasks.reserve(records[level].size());
    for (const decomp::BlockTaskRecord& r : records[level]) {
      tasks.push_back(Task{r.estimated_cost, r.seconds, r.bytes});
    }
    DistributedLevel dl;
    dl.simulation = SimulateCluster(tasks, cluster);
    // Decomposition: the level's edge file is read from the shared FS and
    // the CUT+BLOCKS work parallelizes across workers.
    const uint64_t level_bytes = levels[level].num_edges * 2 * sizeof(NodeId) +
                                 levels[level].num_nodes * sizeof(NodeId);
    dl.decompose_seconds =
        cluster.cost.DiskSeconds(level_bytes) +
        cluster.cost.ComputeSeconds(levels[level].decompose_seconds) /
            cluster.num_workers;
    out.levels.push_back(std::move(dl));
  }

  // Replay the simulated placement as synthetic trace lanes: one lane per
  // (worker, thread) slot under the "mce cluster sim" process, levels laid
  // out end to end (each level's lanes start after its simulated
  // decompose phase). Zero-cost when no recorder is resolved.
  if (obs::TraceRecorder* trace = exec::ResolveTrace(options)) {
    int64_t base_us = obs::NowMicros();
    for (size_t level = 0; level < out.levels.size(); ++level) {
      const DistributedLevel& dl = out.levels[level];
      base_us += static_cast<int64_t>(dl.decompose_seconds * 1e6);
      const SimulationResult& sim = dl.simulation;
      for (size_t i = 0; i < sim.task_lane.size(); ++i) {
        obs::TraceEvent e;
        e.begin_us =
            base_us + static_cast<int64_t>(sim.task_start_seconds[i] * 1e6);
        e.end_us = e.begin_us +
                   static_cast<int64_t>(sim.task_compute_seconds[i] * 1e6);
        e.kind = obs::SpanKind::kSimBlock;
        e.level = static_cast<uint32_t>(level);
        e.index = i;
        e.args[0] = static_cast<uint64_t>(sim.assignment[i]);
        e.args[1] = static_cast<uint64_t>(sim.task_lane[i]);
        e.args[2] = records[level][i].cliques;
        e.lane_pid = 1;
        e.lane_tid = sim.task_lane[i];
        trace->Record(e);
      }
      base_us += static_cast<int64_t>(sim.makespan_seconds * 1e6);
    }
  }
  return out;
}

}  // namespace mce::dist
