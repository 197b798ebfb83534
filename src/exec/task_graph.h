// The task-graph vocabulary of the execution engine.
//
// One FIND-MAX-CLIQUES run is a graph of three typed stages per recursion
// level h:
//
//   DecomposeTask(h)  = induce G_h from the parent's hubs (h >= 1), CUT
//                       (Algorithm 2), and BLOCKS (Algorithm 3). Emits one
//                       BlockTask per block as the block finishes growing.
//   BlockTask(h, i)   = BLOCK-ANALYSIS (Algorithm 4) of block i, buffering
//                       its cliques.
//   FilterTask(h, c)  = one chunk of the telescoped Lemma-1 maximality
//                       checks over the level's buffered cliques (h >= 1;
//                       level-0 cliques are maximal by construction),
//                       answered from the level's shared LevelFilterIndex.
//
// Dependency edges:
//   DecomposeTask(h+1) <- Cut(h)'s hub set only — NOT level h's clique
//     output, which is what lets an executor overlap level-(h+1)
//     decomposition with the tail of level-h analysis.
//   BlockTask(h, i)    <- block i's emission by DecomposeTask(h).
//   FilterTask(h, *)   <- all BlockTask(h, *) (the chunk partition needs
//     the full clique count).
//   Delivery(h)        <- FilterTask(h, *) and Delivery(h-1): cliques and
//     block observer records surface on the calling thread, in block
//     order, levels in order (DESIGN.md §7).
//
// This header holds what both engines share: the stage payloads, the task
// bodies that are not pure scheduling (the reduce prepass, the per-clique
// filter, the m-core fallback), the span builders and the one task window
// every task site is instrumented through. The engines themselves
// (exec/executor.h) keep only scheduling: depth-first streaming on the
// calling thread vs. pool dispatch, shards, batches, admission and
// ordered delivery.

#ifndef MCE_EXEC_TASK_GRAPH_H_
#define MCE_EXEC_TASK_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "decomp/block.h"
#include "decomp/block_analysis.h"
#include "decomp/blocks.h"
#include "decomp/filter.h"
#include "decomp/find_max_cliques.h"
#include "graph/graph.h"
#include "mce/clique.h"
#include "mce/clique_sink.h"
#include "mce/enumerator.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "reduce/reduction.h"

namespace mce::exec {

class RunMetrics;

/// The one construction site of a block's BlockTaskRecord. Executors call
/// it at block emission, while the block is materialized, and fill in
/// `cliques`, `seconds` and `used` once the block's analysis finishes; the
/// record outlives the block, which is freed as soon as its last shard
/// completes.
decomp::BlockTaskRecord MakeBlockTaskRecord(const decomp::Block& block,
                                            uint32_t level, uint64_t index,
                                            double estimated_cost);

/// Derives the Algorithm-3 options of a DecomposeTask.
decomp::BlocksOptions BlocksOptionsFor(
    const decomp::FindMaxCliquesOptions& options);

/// Derives the Algorithm-4 options of a BlockTask.
decomp::BlockAnalysisOptions AnalysisOptionsFor(
    const decomp::FindMaxCliquesOptions& options);

/// Composes the parent level's original-id mapping with the induced
/// subgraph's to_parent: an empty `to_original` is the identity (level 0).
std::vector<NodeId> ComposeToOriginal(const std::vector<NodeId>& to_original,
                                      const std::vector<NodeId>& to_parent);

/// The per-clique body of the FilterTask and the m-core fallback:
/// translates `level_ids` (ids of G_level) to pipeline-graph ids via
/// `to_original` (empty = identity) and canonicalizes them into *out —
/// sorting, or, with the reduction prepass active, re-expanding the twin
/// classes through `expansion` into original-graph ids (via *scratch) —
/// and then applies the telescoped Lemma-1 filter through the level's
/// `index`: a clique from level >= 1 is kept iff it is maximal in the
/// original graph; a null index (level 0) keeps every clique. Returns
/// true and leaves the survivor in *out; returns false when the expansion
/// is covered by a trivial clique of the prepass (a reduction leak) or
/// the clique fails the maximality check. A null or inactive `expansion`
/// leaves *scratch untouched.
bool MapExpandAndFilterClique(std::span<const NodeId> level_ids,
                              const std::vector<NodeId>& to_original,
                              const reduce::ReductionMap* expansion,
                              const decomp::LevelFilterIndex* index,
                              Clique* scratch, Clique* out);

/// Where a run's task windows report: the resolved trace recorder and the
/// counter profile (null unless options.profile is set). Either may be
/// null; each engine builds one per run.
struct TaskSinks {
  obs::TraceRecorder* trace = nullptr;
  obs::ProfileAccumulator* profile = nullptr;
};

/// One task's instrumentation window — the only place the engines read a
/// task's span clock and counters, so a task's trace span and its profile
/// bucket entry come from the same window by construction. Opening reads
/// the clock only when a sink is attached, or when `clocked` asks for it
/// because the engine derives its LevelStats from the window; the thread's
/// counter window begins only when profiling. Not thread-safe: a window
/// opens, stops and closes on one thread.
class TaskWindow {
 public:
  explicit TaskWindow(const TaskSinks& sinks, bool clocked = false);

  /// True when a trace or profile is attached, i.e. Close() records
  /// something. Callers build the span only then.
  bool observed() const {
    return sinks_.trace != nullptr || sinks_.profile != nullptr;
  }
  int64_t begin_us() const { return begin_us_; }

  /// Ends the window: reads the end clock (when timed) and the counter
  /// delta (when profiling). Idempotent; Close() stops an open window
  /// itself. Returns the end timestamp (0 when untimed).
  int64_t Stop();
  /// Length of the stopped window in seconds (0 when untimed).
  double seconds() const {
    return static_cast<double>(end_us_ - begin_us_) * 1e-6;
  }
  /// Counter delta of the stopped window (zero when not profiling), for a
  /// window whose work another task's window books.
  const obs::CounterDelta& counters() const { return delta_; }

  /// Closes the window: stamps `e` with the window and its counter delta
  /// minus `nested` (work inside this window that nested windows book
  /// themselves), books that delta under (e.kind, e.level) with `seconds`
  /// and `cliques` when profiling — the reduce prepass, which sits outside
  /// the recursion, under ProfileAccumulator::kNoLevel — and records `e`
  /// when a trace is attached. Returns the booked delta.
  obs::CounterDelta Close(obs::TraceEvent e, double seconds, uint64_t cliques,
                          const obs::CounterDelta& nested = {});

 private:
  TaskSinks sinks_;
  bool timed_ = false;
  bool stopped_ = false;
  int64_t begin_us_ = 0;
  int64_t end_us_ = 0;
  obs::ScopedCounters counters_;
  obs::CounterDelta delta_;
};

/// The m-core fallback task (the sparsity precondition failed: G_level has
/// no feasible node and is its own m-core), shared by both engines. It
/// registers the graph with the progress estimator as one block-scored
/// unit, enumerates it with options.fallback inside one kFallback task
/// window, passes every clique through MapExpandAndFilterClique with the
/// level's filter `index` (null at level 0) and hands each survivor
/// (sorted, original ids, valid only during the call) to `survivor`,
/// records the filter metrics of levels >= 1, and fills the fallback
/// fields of `stats` (cliques, analyze/block/busiest-worker seconds,
/// analyze_threads). Returns the task's [begin_us, end_us] window, which
/// is always timed.
std::pair<int64_t, int64_t> RunFallbackTask(
    const decomp::LevelFilterIndex* index,
    const reduce::ReductionMap* expansion, const Graph& graph, uint32_t level,
    const std::vector<NodeId>& to_original,
    const decomp::FindMaxCliquesOptions& options, const TaskSinks& sinks,
    RunMetrics& metrics,
    const std::function<void(std::span<const NodeId>)>& survivor,
    decomp::LevelStats* stats);

/// The ReduceTask: shared prepass driver for the executors. When
/// options.reduce is set, Run() reduces `g` on the calling thread, emits
/// the trivial cliques (level 0, ahead of every pipeline clique — the
/// same stream position on every engine), records the kReduce span and
/// the reduction metrics/stats, and the pipeline then decomposes
/// pipeline_graph() with map() threaded through the filter call sites.
/// When options.reduce is off, pipeline_graph() is `g` and map() is null.
class ReducePrepass {
 public:
  /// Must be called once, before any pipeline task runs. `out` receives
  /// the stats and the trivial-clique emission count; the prepass is one
  /// kReduce task window on `sinks`.
  void Run(const Graph& g, const decomp::FindMaxCliquesOptions& options,
           const TaskSinks& sinks, RunMetrics& metrics,
           const decomp::LeveledCliqueCallback& emit,
           decomp::StreamingStats* out);

  const Graph& pipeline_graph() const { return *graph_; }
  /// Null when reduction is off — safe to pass straight to
  /// MapExpandAndFilterClique.
  const reduce::ReductionMap* map() const {
    return active_ ? &result_.map : nullptr;
  }

 private:
  const Graph* graph_ = nullptr;
  reduce::ReductionResult result_;
  bool active_ = false;
};

/// Chunk partition of a level's FilterTasks: contiguous [begin, end)
/// ranges covering `items`, at most 4 per worker and never more chunks
/// than items — in particular no chunks at all when `items` is 0, so tiny
/// or clique-free levels cannot produce empty or degenerate tasks.
std::vector<std::pair<size_t, size_t>> FilterChunks(size_t items,
                                                    size_t workers);

/// Rough bytes one AnalyzeBlock call pins while it runs: the block's
/// adjacency-list working set plus per-node recursion scratch. This is the
/// MemoryBudget workspace charge admission is decided against — a
/// deliberate estimate, not an allocator measurement. Saturates on
/// overflow.
uint64_t EstimateAnalysisBytes(const decomp::Block& block);

/// The run's effective span/metrics sinks: the option override when set,
/// else the process-wide installed instance. Either may be nullptr (= that
/// channel is off). Executors resolve once per Run.
obs::TraceRecorder* ResolveTrace(const decomp::FindMaxCliquesOptions& options);
obs::MetricsRegistry* ResolveMetrics(
    const decomp::FindMaxCliquesOptions& options);

// Span builders: kind, level, index and args of each task's span. The
// task's TaskWindow stamps the times and counters at Close().

/// A DecomposeTask's kDecompose span: the level graph's size and its cut.
obs::TraceEvent MakeDecomposeSpan(const decomp::LevelStats& stats,
                                  uint32_t level);

/// A finished BlockTask's kBlock span: kernel/border/visited sizes, clique
/// count, and the MCE combination that ran, tagged with level and block
/// index.
obs::TraceEvent MakeBlockSpan(const decomp::Block& block,
                              const decomp::BlockAnalysisResult& result,
                              uint32_t level, uint64_t index);

/// One kernel-range shard of a split BlockTask: a kBlockShard span tagged
/// with the block it belongs to, the half-open kernel range it enumerated,
/// its clique count, and the block's total shard count.
obs::TraceEvent MakeBlockShardSpan(uint32_t level, uint64_t block_index,
                                   const decomp::KernelRange& range,
                                   uint64_t cliques, uint64_t shards,
                                   const MceOptions& used);

/// Priority dispatch queue for ready analysis tasks. The thread pool runs
/// plain FIFO; cost-guided scheduling (DESIGN.md §7: largest predicted
/// cost first, so a giant block emitted last cannot serialize the tail of
/// a level) is layered on top by submitting generic "pull" thunks to the
/// pool and letting each pull run the currently most expensive queued
/// task. Ties dispatch in push (emission) order. Thread-safe.
class CostOrderedQueue {
 public:
  /// Enqueues `fn` with predicted cost `cost`.
  void Push(double cost, std::function<void()> fn);

  /// Pops and runs the highest-cost queued task; returns false (and does
  /// nothing) when the queue is empty. Callers submit exactly one pool
  /// thunk per Push, but a thread blocked on the memory budget may also
  /// run queued tasks itself, so a thunk can find the queue drained.
  bool RunNext();

  size_t Size() const;

 private:
  struct Entry {
    double cost = 0;
    uint64_t seq = 0;  // FIFO tiebreak: lower seq wins at equal cost
    std::function<void()> fn;

    /// std::push_heap max-heap order: "worse" entries compare less-than.
    bool operator<(const Entry& other) const {
      if (cost != other.cost) return cost < other.cost;
      return seq > other.seq;
    }
  };

  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;
};

/// Per-run handle bundle for the execution engine's well-known workload
/// metrics. Instrument lookups happen once, at construction; the Record*
/// calls are lock-free and no-ops when the registry is null. Thread-safe.
class RunMetrics {
 public:
  explicit RunMetrics(obs::MetricsRegistry* registry);

  explicit operator bool() const { return registry_ != nullptr; }

  /// One analyzed block: counts it, its cliques, and observes the block
  /// size / edge-density / ns-per-clique histograms.
  void RecordBlock(const decomp::BlockTaskRecord& block);
  /// One BlockTask split into `shards` kernel-range shards (shards >= 2):
  /// bumps exec.blocks_split by one and exec.block_shards by `shards`.
  void RecordSplit(uint64_t shards);
  /// One Lemma-1 filter batch: `checked` cliques tested, `kept` survivors.
  void RecordFilter(uint64_t checked, uint64_t kept);
  /// The reduction prepass's per-rule counters (reduce.* namespace).
  void RecordReduction(const reduce::ReductionStats& stats);
  /// End-of-run totals from the pipeline's stats.
  void RecordRun(const decomp::StreamingStats& stats);

  /// Bytes charged to the MemoryBudget (mem.bytes_charged; sink deltas
  /// flow through SpillInstruments instead).
  void RecordCharge(uint64_t bytes);
  /// One admission stall resolved after `micros` of waiting
  /// (mem.admission_stalls / mem.admission_stall_micros).
  void RecordAdmissionStall(uint64_t micros);
  /// The mem.* handles clique sinks record flushes against (null handles
  /// when no registry is bound).
  SpillMetrics SpillInstruments() const;

 private:
  obs::MetricsRegistry* registry_;
  obs::Counter* blocks_ = nullptr;
  obs::Counter* blocks_split_ = nullptr;
  obs::Counter* block_shards_ = nullptr;
  obs::Counter* block_cliques_ = nullptr;
  obs::Counter* filter_checked_ = nullptr;
  obs::Counter* filter_kept_ = nullptr;
  obs::Counter* levels_ = nullptr;
  obs::Counter* cliques_emitted_ = nullptr;
  obs::Counter* fallback_runs_ = nullptr;
  obs::Counter* mem_bytes_charged_ = nullptr;
  obs::Counter* mem_admission_stalls_ = nullptr;
  obs::Counter* mem_admission_stall_micros_ = nullptr;
  obs::Counter* mem_spill_chunks_ = nullptr;
  obs::Counter* mem_spill_bytes_ = nullptr;
  obs::Histogram* block_nodes_ = nullptr;
  obs::Histogram* block_density_ = nullptr;
  obs::Histogram* block_ns_per_clique_ = nullptr;
  obs::Histogram* mem_spill_chunk_bytes_ = nullptr;
};

}  // namespace mce::exec

#endif  // MCE_EXEC_TASK_GRAPH_H_
