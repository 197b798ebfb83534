// RunSerial: depth-first execution of the task graph on the calling
// thread. DecomposeTask(h) streams its blocks and each BlockTask runs the
// moment its block finishes growing, with the FilterTask applied inline
// per clique — so at most one block (plus the level graph) is alive at a
// time and the memory profile is O(graph + largest block).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "decision/block_cost.h"
#include "decomp/cut.h"
#include "exec/executor.h"
#include "exec/task_graph.h"
#include "graph/subgraph.h"
#include "mce/workspace.h"
#include "util/check.h"
#include "util/memory_budget.h"
#include "util/timer.h"

namespace mce::exec {

decomp::StreamingStats RunSerial(const Graph& g,
                                 const decomp::FindMaxCliquesOptions& options,
                                 const decomp::LeveledCliqueCallback& emit) {
  MCE_CHECK_GE(options.max_block_size, 1u);
  obs::TraceRecorder* const trace = ResolveTrace(options);
  RunMetrics metrics(ResolveMetrics(options));
  obs::ProgressEstimator* const progress = options.progress;
  obs::ProfileAccumulator profile;
  const TaskSinks sinks{trace, options.profile ? &profile : nullptr};
  decomp::StreamingStats out;
  // One workspace reused across every block of the run.
  BlockWorkspace workspace;
  // ReduceTask: when options.reduce is set the prepass emits the trivial
  // cliques right here and the level chain below starts from the
  // reduced graph; `g` stays the filter's reference graph.
  ReducePrepass prep;
  prep.Run(g, options, sinks, metrics, emit, &out);
  const reduce::ReductionMap* const expansion = prep.map();
  const Graph* current = &prep.pipeline_graph();
  // The serial walk never stalls or spills (its live set is already
  // O(graph + one block)), but it tracks the same charges the pooled
  // engine does so peak_tracked_bytes is comparable across executors.
  MemoryBudget budget(options.memory_budget_bytes);
  auto charge = [&](uint64_t bytes) {
    if (bytes == 0) return;
    budget.Charge(bytes);
    metrics.RecordCharge(bytes);
  };
  // Queue depth is always 0 on the serial walk; the budget gauges
  // make serial heartbeats comparable with pooled ones. The guard
  // detaches the closure on every exit, including unwinds out of the
  // user's emit callback — the captures live on this frame.
  obs::ScopedGaugeSource gauge_guard(progress, [&budget] {
    obs::GaugeSample s;
    s.mem_charged_bytes = budget.charged();
    s.mem_peak_bytes = budget.peak();
    return s;
  });
  const uint64_t pipeline_graph_bytes =
      prep.pipeline_graph().ResidentBytes();
  charge(pipeline_graph_bytes);
  uint64_t level_graph_bytes = 0;  // the current owned level graph
  Graph owned;  // deeper levels own the hub-induced subgraph
  // Levels >= 1 filter through their LevelFilterIndex, built right after
  // the level is induced and released before the next Induce.
  decomp::LevelFilterIndex index;
  const decomp::LevelFilterIndex* filter = nullptr;  // null at level 0
  std::vector<NodeId> to_original;  // empty means identity (level 0)
  uint32_t level = 0;
  Clique scratch;
  Clique expand_scratch;

  const decomp::BlocksOptions blocks_options = BlocksOptionsFor(options);
  const decomp::BlockAnalysisOptions analysis_options =
      AnalysisOptionsFor(options);

  // A surviving clique (sorted, original ids) streams straight out.
  auto emit_survivor = [&](std::span<const NodeId> c) {
    ++out.cliques_emitted;
    if (progress != nullptr) progress->AddCliques(1);
    emit(c, level);
  };
  auto deliver = [&](std::span<const NodeId> c) {
    const bool kept = MapExpandAndFilterClique(
        c, to_original, expansion, filter, &expand_scratch, &scratch);
    // Level 0 needs no maximality check, so only deeper levels count as
    // filter work.
    if (level > 0) metrics.RecordFilter(1, kept ? 1 : 0);
    if (kept) emit_survivor(scratch);
  };

  for (;;) {
    decomp::LevelStats stats;
    stats.num_nodes = current->num_nodes();
    stats.num_edges = current->num_edges();
    // One worker (this thread) runs everything; JSON consumers divide by
    // this, so it must never read 0.
    stats.analyze_threads = 1;

    // The decompose span of a level covers CUT plus the block growth; the
    // inline BlockTask spans nest inside it on this single track, and
    // their counter deltas are subtracted at close so the decompose bucket
    // holds only its *self* work — per-kind sums then reproduce the run
    // total exactly despite the nesting.
    TaskWindow decompose(sinks);
    obs::CounterDelta nested;
    auto close_decompose = [&] {
      if (decompose.observed()) {
        decompose.Close(MakeDecomposeSpan(stats, level),
                        stats.decompose_seconds, 0, nested);
      }
    };
    if (progress != nullptr) progress->BeginLevel(level);
    // The decompose clock accumulates Cut plus the block-growth
    // segments between block emissions.
    Timer segment;
    decomp::CutResult cut = decomp::Cut(*current, options.max_block_size);
    stats.feasible = cut.feasible.size();
    stats.hubs = cut.hubs.size();

    if (cut.feasible.empty() && current->num_nodes() > 0) {
      // Sparsity precondition violated: the remaining graph is its own
      // m-core. Enumerate it directly as one indivisible task.
      out.used_fallback = true;
      stats.decompose_seconds = segment.ElapsedSeconds();
      close_decompose();
      RunFallbackTask(filter, expansion, *current, level, to_original,
                      options, sinks, metrics, emit_survivor, &stats);
      out.levels.push_back(stats);
      if (progress != nullptr) progress->FinishLevel(level);
      break;
    }

    uint64_t produced = 0;
    uint64_t block_index = 0;
    decomp::BuildBlocksStreaming(
        *current, cut.feasible, blocks_options,
        [&](decomp::Block&& block) {
          stats.decompose_seconds += segment.ElapsedSeconds();
          // The block plus its analysis workspace are live for exactly
          // this callback.
          const uint64_t block_charge =
              block.EstimatedBytes() + EstimateAnalysisBytes(block);
          charge(block_charge);
          // One cost-model evaluation serves every consumer: the
          // progress denominator (registered before the analysis so a
          // sampler sees the work as pending, not invisible), the trace
          // span, and the observer record — the same score the pooled
          // engine dispatches by, though the serial walk never reorders
          // or splits.
          const double estimated_cost =
              progress != nullptr || options.block_observer ||
                      decompose.observed()
                  ? decision::EstimateBlockCost(block.subgraph.graph)
                  : 0;
          if (progress != nullptr) {
            progress->RegisterBlock(level, estimated_cost);
          }
          TaskWindow window(sinks);
          Timer block_timer;
          decomp::BlockAnalysisResult result = decomp::AnalyzeBlock(
              block, analysis_options, deliver, &workspace);
          const double block_seconds = block_timer.ElapsedSeconds();
          window.Stop();
          budget.Release(block_charge);
          if (window.observed()) {
            obs::TraceEvent e =
                MakeBlockSpan(block, result, level, block_index);
            e.cost = estimated_cost;
            nested += window.Close(e, block_seconds, result.num_cliques);
          }
          decomp::BlockTaskRecord record =
              MakeBlockTaskRecord(block, level, block_index, estimated_cost);
          record.cliques = result.num_cliques;
          record.seconds = block_seconds;
          record.used = result.used;
          metrics.RecordBlock(record);
          produced += result.num_cliques;
          stats.block_seconds += block_seconds;
          stats.analyze_seconds += block_seconds;
          if (options.block_observer) options.block_observer(record);
          if (progress != nullptr) {
            progress->RetireBlock(level, estimated_cost);
          }
          ++block_index;
          segment.Reset();
        });
    stats.decompose_seconds += segment.ElapsedSeconds();
    stats.blocks = block_index;
    stats.cliques = produced;
    stats.busiest_worker_seconds = stats.block_seconds;
    close_decompose();
    out.levels.push_back(stats);
    if (progress != nullptr) progress->FinishLevel(level);

    if (cut.hubs.empty()) break;

    // Recursive step: continue on the hub-induced subgraph. The level's
    // filter index is dead once its blocks are done, so it is released
    // before the child is induced and never overlaps the child's charges.
    budget.Release(index.ResidentBytes());
    index = decomp::LevelFilterIndex();
    InducedSubgraph sub = Induce(*current, cut.hubs);
    to_original = ComposeToOriginal(to_original, sub.to_parent);
    // Parent and child graphs overlap until the move below frees the
    // parent, so the child is charged before the parent is released.
    const uint64_t next_graph_bytes = sub.graph.ResidentBytes();
    charge(next_graph_bytes);
    owned = std::move(sub.graph);
    budget.Release(level_graph_bytes);
    level_graph_bytes = next_graph_bytes;
    current = &owned;
    ++level;
    index = decomp::LevelFilterIndex(g, owned, to_original, expansion,
                                     budget.Headroom());
    charge(index.ResidentBytes());
    filter = &index;
  }
  out.memory.budget_bytes = budget.limit();
  out.memory.peak_tracked_bytes = budget.peak();
  if (options.profile) out.profile = profile.Snapshot();
  metrics.RecordRun(out);
  if (progress != nullptr) {
    progress->MarkComplete();
    out.progress = progress->Accounting();
  }
  return out;
}

}  // namespace mce::exec
