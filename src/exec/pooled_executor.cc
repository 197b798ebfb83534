// RunPooled: the task graph on a shared ThreadPool.
//
// Scheduling differences vs. the serial depth-first walk:
//  * BlockTasks are submitted the moment BuildBlocksStreaming emits each
//    block, so analysis starts while the level is still decomposing.
//  * Task granularity follows the block cost model (DESIGN.md §7): blocks
//    predicted above max_block_cost split into kernel-range shards, blocks
//    below it coalesce into batches of about that much predicted work, and
//    ready tasks dispatch largest-predicted-first.
//  * DecomposeTask(h+1) depends only on Cut(h)'s hub set, so it is
//    submitted before level h's blocks are even built — the next level's
//    induce/cut/build runs concurrently with the tail of level-h analysis
//    (the measured window is LevelStats::overlap_seconds).
//  * The level's FilterTasks are planned by a task that whichever of the
//    level's decompose task and last BlockTask finishes second submits —
//    a per-level dependency instead of a pool-wide Wait() barrier.
//
// Delivery (cliques, observer records, stats) happens only on the
// calling thread, levels in order and blocks in decomposition order, off
// buffered per-block results — which is what makes the emission
// byte-identical to the serial engine.
//
// Timing: every task records one always-clocked TaskWindow on the
// obs::NowMicros() timebase (exec/task_graph.h). The same windows feed the
// trace recorder and the profile (when attached) and the LevelStats —
// analyze_seconds is the hull of the level's block+filter spans,
// overlap_seconds the decompose window clipped against earlier levels'
// analysis hulls, idle_seconds the worker capacity of the hull minus the
// block work inside it (obs/span_math.h).
//
// Synchronization: all cross-task state hangs off LevelRun records owned
// by a deque guarded by one engine mutex. Tasks receive stable element
// pointers taken under the lock (deques never relocate elements); a
// task's unlocked reads are confined to data whose writers finished
// before the mutex-protected state transition the reader observed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "decision/block_cost.h"
#include "decision/features.h"
#include "decomp/block_analysis.h"
#include "decomp/cut.h"
#include "decomp/filter.h"
#include "exec/executor.h"
#include "exec/task_graph.h"
#include "graph/subgraph.h"
#include "mce/clique_sink.h"
#include "mce/workspace.h"
#include "obs/span_math.h"
#include "util/check.h"
#include "util/memory_budget.h"
#include "util/thread_pool.h"

namespace mce::exec {

namespace {

/// One kernel-range shard of a BlockTask: its range, buffered cliques, and
/// measured window. An unsplit block is the degenerate single-shard case.
struct ShardRun {
  decomp::KernelRange range;
  decomp::BlockAnalysisResult result;
  /// The shard's cliques (parent-graph ids, each sorted), in emission
  /// order; concatenating the shards in kernel order reproduces the
  /// undivided task's buffer byte for byte. A CliqueSink so the buffer can
  /// spill past the level's threshold without changing replay order.
  std::unique_ptr<CliqueSink> cliques;
  int64_t begin_us = 0;
  int64_t end_us = 0;
  double seconds = 0;
  size_t worker = 0;
};

/// Execution state of one BlockTask. The shard vector is sized at block
/// emission and never resized, so shard tasks hold stable element
/// pointers.
struct BlockExec {
  /// The block, materialized from emission until its last shard finishes
  /// and frees it (releasing its record.bytes budget charge).
  decomp::Block block;
  /// The observer record. Shape, index and the decision::EstimateBlockCost
  /// score (which drives both the largest-first dispatch order and the
  /// split decision) are set at emission; the last-finishing shard adds
  /// `used` (the classification is deterministic per block) and the
  /// summed clique count / serial-equivalent seconds.
  decomp::BlockTaskRecord record;
  /// Progress units already retired by this block's finished shards
  /// (engine mutex). The last shard retires the residual of
  /// record.estimated_cost, so the retired total sums exactly to the
  /// registered cost however the block was split.
  double cost_retired = 0;
  /// EstimateAnalysisBytes of the block — the per-shard workspace charge
  /// admission is decided against.
  uint64_t ws_bytes = 0;
  std::vector<ShardRun> shards;
  size_t shards_done = 0;  // engine mutex
};

/// All state of one recursion level as it moves through the task graph.
struct LevelRun {
  uint32_t level = 0;
  Graph owned_graph;             // levels >= 1 own their induced subgraph
  const Graph* graph = nullptr;  // level 0 aliases the caller's graph
  /// owned_graph's tracked ResidentBytes; released in MaybeReleaseInputs.
  uint64_t graph_bytes = 0;
  /// Shared spill state of every sink this level creates: the engine's
  /// SpillConfig plus the level's running resident-byte total, which is
  /// what the per-level spill threshold is compared against.
  SpillContext spill;
  std::vector<NodeId> to_original;  // empty means identity (level 0)
  decomp::CutResult cut;
  bool has_child = false;
  bool child_induced = false;
  bool delivered = false;

  // BlockTask state. A deque so emitted tasks hold stable pointers while
  // the decompose task keeps appending.
  std::deque<BlockExec> execs;
  /// Tiny-block batch under construction (touched only by the level's
  /// decompose worker, before blocks_final). Blocks predicted under the
  /// split threshold are coalesced into one pool task aimed at about
  /// max_block_cost of work, the same granularity giant blocks are split
  /// down to — dispatch overhead then scales with predicted work, not
  /// block count.
  std::vector<BlockExec*> batch;
  double batch_cost = 0;
  bool blocks_final = false;
  size_t blocks_done = 0;
  /// Set by whichever of the decompose task and the last BlockTask
  /// submits PlanFilter, so it runs exactly once.
  bool filter_planned = false;

  // FilterTask state (levels >= 1). Chunks own disjoint clique ranges of
  // the concatenated shard sinks (block order, shards in kernel order —
  // the serial emission order) and buffer their survivors in per-chunk
  // sinks; delivery walks the sinks in chunk order.
  std::vector<const CliqueSink*> filter_sinks;
  size_t filter_total = 0;
  /// The level's Lemma-1 index: built (and charged) by PlanFilter or the
  /// level-(>= 1) fallback, read concurrently by the chunks, released by
  /// the level's last chunk.
  decomp::LevelFilterIndex filter_index;
  std::vector<std::unique_ptr<CliqueSink>> filter_out;
  size_t filter_chunks_left = 0;

  // m-core fallback: survivors buffered for calling-thread emission.
  bool fallback = false;
  std::unique_ptr<CliqueSink> fallback_cliques;

  decomp::LevelStats stats;

  // Task windows on the obs::NowMicros() timebase. The block windows live
  // in `runs`; filter chunk windows are appended under the engine mutex.
  int64_t decompose_begin_us = 0;
  int64_t decompose_end_us = 0;
  /// Counter delta of analyses the decompose worker ran while held at the
  /// block gate; subtracted from the decompose window so the decompose
  /// bucket holds only its self work.
  obs::CounterDelta decompose_helped;
  std::vector<std::pair<int64_t, int64_t>> filter_spans;
  std::pair<int64_t, int64_t> fallback_span;

  bool ready = false;
};

class PooledEngine {
 public:
  PooledEngine(const Graph& g, const decomp::FindMaxCliquesOptions& options,
               size_t num_threads, const decomp::LeveledCliqueCallback& emit)
      : original_(g),
        options_(options),
        emit_(emit),
        blocks_options_(BlocksOptionsFor(options)),
        analysis_options_(AnalysisOptionsFor(options)),
        trace_(ResolveTrace(options)),
        metrics_(ResolveMetrics(options)),
        progress_(options.progress),
        budget_(options.memory_budget_bytes),
        workspaces_(std::max<size_t>(1, num_threads)),
        pool_(std::max<size_t>(1, num_threads)) {
    sinks_.trace = trace_;
    if (options.profile) sinks_.profile = &profile_;
    spill_config_.dir = options.spill_dir;
    spill_config_.threshold_bytes = decomp::EffectiveSpillThreshold(options);
    spill_config_.budget = &budget_;
    spill_config_.trace = trace_;
    spill_config_.metrics = metrics_.SpillInstruments();
    spill_config_.progress = progress_;
  }

  decomp::StreamingStats Run() {
    decomp::StreamingStats out;
    // Heartbeat gauges: pending pool tasks (generic pulls included)
    // plus the cost-ordered analysis backlog, and the budget's live
    // charge. The closure captures `this`; the guard detaches it on every
    // exit from Run — including unwinds out of the user's emit callback —
    // before the engine (and its pool) dies under a live sampler.
    obs::ScopedGaugeSource gauge_guard(progress_, [this] {
      obs::GaugeSample s;
      s.queue_depth = pool_.QueueDepth() + queue_.Size();
      s.mem_charged_bytes = budget_.charged();
      s.mem_peak_bytes = budget_.peak();
      return s;
    });
    // ReduceTask: runs on the calling thread before the root decompose is
    // even submitted, so the trivial cliques hold the same leading stream
    // positions as on the serial engine. The level chain decomposes the
    // reduced graph; original_ stays the Lemma-1 reference.
    prep_.Run(original_, options_, sinks_, metrics_, emit_, &out);
    expansion_ = prep_.map();
    // The pipeline graph is resident for the whole run (an mmap-backed
    // graph reports zero here — its pages are reclaimable).
    const uint64_t pipeline_graph_bytes =
        prep_.pipeline_graph().ResidentBytes();
    ChargeTracked(pipeline_graph_bytes);
    auto root = std::make_unique<LevelRun>();
    root->level = 0;
    root->graph = &prep_.pipeline_graph();
    root->spill.config = &spill_config_;
    root->spill.level = 0;
    LevelRun* root_ptr = root.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      levels_.push_back(std::move(root));
    }
    pool_.Submit([this, root_ptr] { DecomposeTask(root_ptr, nullptr); });

    size_t next = 0;
    for (;;) {
      LevelRun* lr = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return (next < levels_.size() && levels_[next]->ready) ||
                 (chain_done_ && next >= levels_.size());
        });
        if (next >= levels_.size()) break;
        lr = levels_[next].get();
      }
      DeliverLevel(lr, out);
      {
        std::lock_guard<std::mutex> lock(mu_);
        lr->delivered = true;
        MaybeReleaseInputs(lr);
      }
      ++next;
    }
    pool_.Wait();
    ReleaseTracked(pipeline_graph_bytes);
    out.memory.budget_bytes = budget_.limit();
    out.memory.peak_tracked_bytes = budget_.peak();
    out.memory.admission_stalls =
        admission_stalls_.load(std::memory_order_relaxed);
    out.memory.admission_stall_seconds =
        static_cast<double>(
            admission_stall_micros_.load(std::memory_order_relaxed)) *
        1e-6;
    if (sinks_.profile != nullptr) out.profile = profile_.Snapshot();
    metrics_.RecordRun(out);
    if (progress_ != nullptr) {
      progress_->MarkComplete();
      out.progress = progress_->Accounting();
    }
    return out;
  }

 private:
  /// DecomposeTask(level): induce (levels >= 1), Cut, dispatch the child
  /// level's decompose, then stream blocks into BlockTasks.
  void DecomposeTask(LevelRun* lr, LevelRun* parent) {
    // The whole task — induce, cut, block growth, cost scoring — runs on
    // this one worker, so a single task window covers it. The window
    // closes inside CloseDecompose, before the m-core fallback (its own
    // task kind) starts.
    TaskWindow window(sinks_, /*clocked=*/true);
    lr->decompose_begin_us = window.begin_us();
    if (progress_ != nullptr) progress_->BeginLevel(lr->level);
    if (parent != nullptr) {
      InducedSubgraph sub = Induce(*parent->graph, parent->cut.hubs);
      lr->to_original = ComposeToOriginal(parent->to_original, sub.to_parent);
      lr->owned_graph = std::move(sub.graph);
      lr->graph = &lr->owned_graph;
      lr->graph_bytes = lr->owned_graph.ResidentBytes();
      ChargeTracked(lr->graph_bytes);
      std::lock_guard<std::mutex> lock(mu_);
      parent->child_induced = true;
      MaybeReleaseInputs(parent);
    }
    const Graph& graph = *lr->graph;
    lr->stats.num_nodes = graph.num_nodes();
    lr->stats.num_edges = graph.num_edges();
    lr->cut = decomp::Cut(graph, options_.max_block_size);
    lr->stats.feasible = lr->cut.feasible.size();
    lr->stats.hubs = lr->cut.hubs.size();

    if (lr->cut.feasible.empty() && graph.num_nodes() > 0) {
      // Sparsity precondition violated: enumerate the m-core directly as
      // one indivisible task on this worker, buffering the survivors.
      {
        std::lock_guard<std::mutex> lock(mu_);
        chain_done_ = true;
      }
      lr->fallback = true;
      lr->decompose_end_us = window.Stop();
      CloseDecompose(lr, window);
      lr->fallback_cliques = MakeCliqueSink(&lr->spill);
      if (lr->level > 0) BuildFilterIndex(lr);
      lr->fallback_span = RunFallbackTask(
          lr->level > 0 ? &lr->filter_index : nullptr, expansion_, graph,
          lr->level, lr->to_original, options_, sinks_, metrics_,
          [lr](std::span<const NodeId> c) {
            lr->fallback_cliques->AppendRaw(c);
          },
          &lr->stats);
      ReleaseFilterIndex(lr);
      {
        std::lock_guard<std::mutex> lock(mu_);
        lr->ready = true;
      }
      cv_.notify_all();
      return;
    }

    if (!lr->cut.hubs.empty()) {
      // Cross-level pipelining: the child depends only on this cut's hub
      // set, so its decomposition is dispatched before this level's
      // blocks are built, overlapping the tail of this level's analysis.
      auto child = std::make_unique<LevelRun>();
      child->level = lr->level + 1;
      child->spill.config = &spill_config_;
      child->spill.level = child->level;
      LevelRun* child_ptr = child.get();
      {
        std::lock_guard<std::mutex> lock(mu_);
        lr->has_child = true;
        levels_.push_back(std::move(child));
      }
      pool_.Submit([this, child_ptr, lr] { DecomposeTask(child_ptr, lr); });
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      chain_done_ = true;
    }

    decomp::BuildBlocksStreaming(
        graph, lr->cut.feasible, blocks_options_,
        [this, lr](decomp::Block&& b) { EmitBlock(lr, std::move(b)); });
    // The tail batch flushes before blocks_final so every emitted block
    // has a task in flight when the completion check below runs.
    FlushBatch(lr);

    const int64_t end_us = window.Stop();
    bool plan = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      lr->blocks_final = true;
      lr->stats.blocks = lr->execs.size();
      lr->decompose_end_us = end_us;
      plan = !lr->filter_planned && lr->blocks_done == lr->execs.size();
      if (plan) lr->filter_planned = true;
    }
    CloseDecompose(lr, window);
    if (plan) pool_.Submit([this, lr] { PlanFilter(lr); });
  }

  /// Closes the level's decompose window into its kDecompose span; call
  /// once the window is stopped and the cut stats are final (this worker
  /// wrote both). Analyses the worker ran while held at the block gate
  /// are booked by their own windows, so they are carved out here.
  void CloseDecompose(LevelRun* lr, TaskWindow& window) {
    if (!window.observed()) return;
    window.Close(MakeDecomposeSpan(lr->stats, lr->level), window.seconds(), 0,
                 lr->decompose_helped);
  }

  /// Emission of one block by DecomposeTask(level): score it, plan its
  /// shards, and dispatch them through the cost-ordered queue.
  void EmitBlock(LevelRun* lr, decomp::Block&& b) {
    // The predicted cost reuses the bestfit classification features —
    // computed here, on the decompose worker, so dispatch order and the
    // split decision are fixed before any worker picks the block up.
    const double cost = decision::EstimateBlockCost(b.subgraph.graph);
    // Registered at emission — before any shard can run — so a progress
    // sampler sees the work as pending the moment it exists.
    if (progress_ != nullptr) progress_->RegisterBlock(lr->level, cost);
    const size_t kernels = b.kernel_local.size();
    const bool splittable =
        options_.max_block_cost > 0 && pool_.num_threads() > 1;
    const size_t shards =
        splittable
            ? decision::PlanShardCount(cost, options_.max_block_cost, kernels)
            : 1;

    BlockExec* exec = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      exec = &lr->execs.emplace_back();
      exec->record =
          MakeBlockTaskRecord(b, lr->level, lr->execs.size() - 1, cost);
      exec->block = std::move(b);
      exec->shards.resize(shards);
    }
    exec->ws_bytes = EstimateAnalysisBytes(exec->block);
    // Materialized-block charge: the block exists from emission until its
    // last shard frees it. Under a budget the charge waits at the block
    // gate (AdmitBlock) instead of piling blocks past the budget.
    AdmitBlock(lr, exec->record.bytes);
    // Shard sinks are created here, on the decompose worker, before any
    // shard task can observe its slot through the dispatch queue.
    for (ShardRun& run : exec->shards) {
      run.cliques = MakeCliqueSink(&lr->spill);
    }
    if (shards > 1) metrics_.RecordSplit(shards);
    if (shards == 1 && splittable && cost < options_.max_block_cost) {
      // Tiny block: coalesce instead of dispatching. The batch flushes
      // once it accumulates a split threshold's worth of predicted work
      // (and unconditionally at decompose end), so every pool task —
      // shard, batch, or lone mid-sized block — carries comparable work.
      exec->shards[0].range = {0, kernels};
      lr->batch.push_back(exec);
      lr->batch_cost += cost;
      // Batches flush about a split-threshold's worth of work at a time:
      // large enough that dispatch and context-switch overhead is
      // amortized (tiny tasks on few cores otherwise spend more time in
      // handoffs than analysis), small enough that a level still breaks
      // into many independently schedulable tasks. Narrow pools coarsen
      // the batches further — with few workers there is little balancing
      // to gain, and handoff overhead dominates; wide pools keep them at
      // the split granularity so every worker has work to pull.
      const double mult = pool_.num_threads() <= 4 ? 4.0 : 1.0;
      if (lr->batch_cost >= mult * options_.max_block_cost) FlushBatch(lr);
      return;
    }
    // Contiguous, even kernel ranges; every shard carries an equal share
    // of the predicted cost into the dispatch order.
    const double shard_cost = cost / static_cast<double>(shards);
    for (size_t s = 0; s < shards; ++s) {
      ShardRun& run = exec->shards[s];
      run.range.begin = kernels * s / shards;
      run.range.end = kernels * (s + 1) / shards;
      queue_.Push(shard_cost, [this, lr, exec, s] { ShardTask(lr, exec, s); });
      // One generic pull per queued task: the pool stays FIFO while the
      // queue decides which analysis task each freed worker runs —
      // highest predicted cost first (DESIGN.md §7).
      pool_.Submit([this] { queue_.RunNext(); });
    }
  }

  /// Dispatches the level's pending tiny-block batch as one pool task
  /// whose scheduling cost is the batch's summed prediction. Runs on the
  /// level's decompose worker (the only writer of the batch fields).
  void FlushBatch(LevelRun* lr) {
    if (lr->batch.empty()) return;
    const double cost = lr->batch_cost;
    queue_.Push(cost, [this, lr, items = std::move(lr->batch)] {
      for (BlockExec* exec : items) ShardTask(lr, exec, 0);
    });
    lr->batch = {};
    lr->batch_cost = 0;
    pool_.Submit([this] { queue_.RunNext(); });
  }

  /// BlockShardTask(level, i, s): Algorithm 4 over the shard's kernel
  /// range, into the shard's buffer slot. The last-finishing shard
  /// aggregates the block and advances the level's completion state.
  void ShardTask(LevelRun* lr, BlockExec* exec, size_t shard) {
    const size_t worker_index = ThreadPool::CurrentWorkerIndex();
    const size_t worker =
        worker_index == ThreadPool::kNotAWorker ? 0 : worker_index;
    ShardRun& run = exec->shards[shard];
    // Budget admission: under a limit, a shard whose workspace estimate
    // would push the tracked total past the budget waits for in-flight
    // analyses to finish (the stall happens before begin_us so it never
    // inflates the block's measured window).
    AdmitAnalysis(lr->level, exec->ws_bytes);
    // The window opens after the admission stall so a budget wait never
    // shows up as analysis work.
    TaskWindow window(sinks_, /*clocked=*/true);
    run.begin_us = window.begin_us();
    // Level-0 buffers are the emission source and must hold each clique
    // sorted; deeper levels' buffers only feed the filter, which sorts.
    // With the reduction prepass active, level 0 additionally re-expands
    // through the twin classes and drops covered cliques here, at
    // buffering time — level 0 has no filter stage to do it later.
    const bool canonicalize = lr->level == 0;
    const reduce::ReductionMap* const expansion = expansion_;
    Clique expand_tmp;
    run.result = decomp::AnalyzeBlock(
        exec->block, analysis_options_,
        [&run, canonicalize, expansion, &expand_tmp](
            std::span<const NodeId> c) {
          if (canonicalize) {
            if (expansion != nullptr) {
              if (expansion->ExpandClique(c, &expand_tmp)) {
                run.cliques->AppendRaw(expand_tmp);  // expansion is sorted
              }
            } else {
              run.cliques->Append(c);
            }
          } else {
            run.cliques->AppendRaw(c);
          }
        },
        &workspaces_[worker], run.range);
    run.end_us = window.Stop();
    run.seconds = window.seconds();
    run.worker = worker;
    const size_t total = exec->shards.size();
    const uint64_t index = exec->record.index;
    const double cost = exec->record.estimated_cost;
    if (window.observed()) {
      obs::TraceEvent e =
          total > 1 ? MakeBlockShardSpan(lr->level, index, run.range,
                                         run.result.num_cliques, total,
                                         run.result.used)
                    : MakeBlockSpan(exec->block, run.result, lr->level, index);
      // Equal predicted share per shard — matching the dispatch queue.
      e.cost = cost / static_cast<double>(total);
      window.Close(e, run.seconds, run.result.num_cliques);
    }
    FinishAnalysis(exec->ws_bytes);

    bool block_done = false;
    double retire = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      block_done = ++exec->shards_done == total;
      if (progress_ != nullptr) {
        // Equal predicted share per shard; the last shard retires the
        // exact residual so the block's retired total equals its
        // registered cost bit for bit.
        retire = block_done ? std::max(cost - exec->cost_retired, 0.0)
                            : cost / static_cast<double>(total);
        exec->cost_retired += retire;
      }
    }
    if (progress_ != nullptr) {
      if (block_done) {
        progress_->RetireBlock(lr->level, retire);
      } else {
        progress_->RetireCost(retire);
      }
    }
    if (!block_done) return;

    // All shard writers finished before the shards_done transition this
    // thread observed, so their slots are safe to read unlocked.
    decomp::BlockTaskRecord& record = exec->record;
    record.used = exec->shards.front().result.used;
    for (const ShardRun& s : exec->shards) {
      record.cliques += s.result.num_cliques;
      record.seconds += s.seconds;
    }
    // Workload metrics count whole blocks, however many shards ran them.
    metrics_.RecordBlock(record);
    // Delivery reads only the record and the shard buffers, never the
    // block: freeing it here keeps the engine's live footprint near the
    // serial one-block-at-a-time profile.
    ReleaseBlock(exec);

    bool plan = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++lr->blocks_done;
      plan = lr->blocks_final && !lr->filter_planned &&
             lr->blocks_done == lr->execs.size();
      if (plan) lr->filter_planned = true;
    }
    if (plan) pool_.Submit([this, lr] { PlanFilter(lr); });
  }

  /// Runs after the level's last BlockTask: partitions the buffered
  /// cliques into FilterTask chunks (levels >= 1), or marks the level
  /// ready directly (level 0 needs no filter).
  void PlanFilter(LevelRun* lr) {
    // Submitted only once every BlockTask of the level had finished (the
    // filter_planned transition under the engine mutex), so the buffers
    // are safe to read without the lock. Shards are
    // listed in kernel order within each block, so the sink concatenation
    // is the serial emission order — chunk tasks stream their ranges out
    // of it with ForEachCliqueInRange, never materializing spans.
    if (lr->level > 0) {
      size_t total = 0;
      for (const BlockExec& exec : lr->execs) {
        for (const ShardRun& run : exec.shards) {
          lr->filter_sinks.push_back(run.cliques.get());
          total += run.cliques->size();
        }
      }
      lr->filter_total = total;
      const std::vector<std::pair<size_t, size_t>> chunks =
          FilterChunks(total, pool_.num_threads());
      if (!chunks.empty()) {
        // Built once here, before any chunk is submitted; the chunks only
        // read it.
        BuildFilterIndex(lr);
        lr->filter_out.reserve(chunks.size());
        for (size_t c = 0; c < chunks.size(); ++c) {
          lr->filter_out.push_back(MakeCliqueSink(&lr->spill));
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          lr->filter_chunks_left = chunks.size();
        }
        for (size_t c = 0; c < chunks.size(); ++c) {
          const size_t begin = chunks[c].first;
          const size_t end = chunks[c].second;
          pool_.Submit([this, lr, begin, end, c] {
            FilterChunkTask(lr, begin, end, c);
          });
        }
        return;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      lr->ready = true;
    }
    cv_.notify_all();
  }

  /// FilterTask(level, chunk): the telescoped Lemma-1 checks over one
  /// contiguous slice of the level's buffered cliques, survivors appended
  /// in slice order to the chunk's own arena.
  void FilterChunkTask(LevelRun* lr, size_t begin, size_t end, size_t chunk) {
    TaskWindow window(sinks_, /*clocked=*/true);
    CliqueSink& out = *lr->filter_out[chunk];
    Clique scratch;
    Clique expand_scratch;
    uint64_t kept = 0;
    decomp::ForEachCliqueInRange(
        lr->filter_sinks, begin, end, [&](std::span<const NodeId> c) {
          if (MapExpandAndFilterClique(c, lr->to_original, expansion_,
                                       &lr->filter_index, &expand_scratch,
                                       &scratch)) {
            out.AppendRaw(scratch);
            ++kept;
          }
        });
    window.Stop();
    if (window.observed()) {
      obs::TraceEvent e;
      e.kind = obs::SpanKind::kFilter;
      e.level = lr->level;
      e.index = chunk;
      e.args[0] = end - begin;
      e.args[1] = kept;
      window.Close(e, window.seconds(), kept);
    }
    metrics_.RecordFilter(end - begin, kept);
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      lr->filter_spans.emplace_back(window.begin_us(), window.Stop());
      done = --lr->filter_chunks_left == 0;
    }
    if (!done) return;
    // Every other chunk finished reading the index before the decrement
    // this thread observed; the level turns ready only once it is freed.
    ReleaseFilterIndex(lr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      lr->ready = true;
    }
    cv_.notify_all();
  }

  /// Builds the level's filter index from its graph and id mapping (both
  /// stable until delivery), with bit rows only where they fit the
  /// budget's headroom, and charges it to the budget.
  void BuildFilterIndex(LevelRun* lr) {
    lr->filter_index =
        decomp::LevelFilterIndex(original_, *lr->graph, lr->to_original,
                                 expansion_, budget_.Headroom());
    ChargeTracked(lr->filter_index.ResidentBytes());
  }

  /// Frees the level's filter index and releases its charge.
  void ReleaseFilterIndex(LevelRun* lr) {
    ReleaseTracked(lr->filter_index.ResidentBytes());
    lr->filter_index = decomp::LevelFilterIndex();
  }

  /// Calling thread only. Emits the level's cliques, replays the observer
  /// records in block order, and finalizes the level's stats.
  void DeliverLevel(LevelRun* lr, decomp::StreamingStats& out) {
    decomp::LevelStats& stats = lr->stats;
    const uint64_t emitted_before = out.cliques_emitted;
    // The level's analysis spans (block + filter tasks, or the fallback),
    // rebased to seconds since the engine epoch — the exact windows the
    // trace recorder saw.
    std::vector<obs::TimeRange> analyze_spans;
    if (lr->fallback) {
      out.used_fallback = true;
      analyze_spans.push_back(
          Range(lr->fallback_span.first, lr->fallback_span.second));
      lr->fallback_cliques->ForEach([&](std::span<const NodeId> c) {
        ++out.cliques_emitted;
        emit_(c, lr->level);
      });
    } else {
      std::vector<double> worker_seconds(pool_.num_threads(), 0.0);
      uint64_t produced = 0;
      for (const BlockExec& exec : lr->execs) {
        produced += exec.record.cliques;
        stats.block_seconds += exec.record.seconds;
        if (exec.shards.size() > 1) ++stats.block_splits;
        for (const ShardRun& run : exec.shards) {
          worker_seconds[run.worker] += run.seconds;
          analyze_spans.push_back(Range(run.begin_us, run.end_us));
        }
        // The observer sees one record per block — the aggregated
        // whole-block result — whether or not it ran as shards, so its
        // stream matches the serial executor's.
        if (options_.block_observer) options_.block_observer(exec.record);
      }
      stats.cliques = produced;
      stats.busiest_worker_seconds =
          *std::max_element(worker_seconds.begin(), worker_seconds.end());
      stats.analyze_threads = static_cast<uint32_t>(pool_.num_threads());
      for (const auto& [begin_us, end_us] : lr->filter_spans) {
        analyze_spans.push_back(Range(begin_us, end_us));
      }
      stats.analyze_seconds = obs::Hull(analyze_spans).Length();

      if (lr->level == 0) {
        // Identity mapping and per-clique sorting already happened in the
        // per-shard buffers, so the merge is a plain replay: blocks in
        // decomposition order, shards in kernel order.
        for (const BlockExec& exec : lr->execs) {
          for (const ShardRun& run : exec.shards) {
            run.cliques->ForEach([&](std::span<const NodeId> c) {
              ++out.cliques_emitted;
              emit_(c, lr->level);
            });
          }
        }
      } else {
        // Chunk sinks in chunk order = concatenated-sink order = serial
        // order.
        for (const std::unique_ptr<CliqueSink>& chunk : lr->filter_out) {
          chunk->ForEach([&](std::span<const NodeId> c) {
            ++out.cliques_emitted;
            emit_(c, lr->level);
          });
        }
      }
    }
    const obs::TimeRange decompose_window =
        Range(lr->decompose_begin_us, lr->decompose_end_us);
    stats.decompose_seconds = decompose_window.Length();
    // The pipelining win: how long this level's decomposition ran while
    // an earlier level was still analyzing — the decompose span clipped
    // against the union of earlier levels' analysis hulls.
    stats.overlap_seconds = obs::OverlapLength(decompose_window,
                                               analyze_windows_);
    const obs::TimeRange analyze_hull = obs::Hull(analyze_spans);
    if (!analyze_hull.Empty()) analyze_windows_.push_back(analyze_hull);
    // Idle capacity, attributed by cause: work starvation inside the
    // level's own spans vs. hull gaps where the pool was parked at a
    // task-graph boundary (obs/span_math.h).
    const obs::IdleSplit idle =
        obs::SplitIdle(analyze_spans, stats.block_seconds,
                       static_cast<int>(stats.analyze_threads));
    stats.idle_seconds = idle.idle_seconds;
    stats.barrier_idle_seconds = idle.barrier_idle_seconds;
    out.levels.push_back(stats);

    // Spill totals of every sink this level created, absorbed before the
    // sinks are destroyed.
    const auto absorb = [&out](const CliqueSink* s) {
      if (s == nullptr) return;
      out.memory.spill_chunks += s->spilled_chunks();
      out.memory.spill_bytes += s->spilled_bytes();
    };
    for (const BlockExec& exec : lr->execs) {
      for (const ShardRun& run : exec.shards) absorb(run.cliques.get());
    }
    for (const std::unique_ptr<CliqueSink>& chunk : lr->filter_out) {
      absorb(chunk.get());
    }
    absorb(lr->fallback_cliques.get());

    // Free the bulky per-level state now that it is delivered. Destroying
    // the sinks releases their residual byte accounting.
    lr->execs.clear();
    lr->filter_sinks = {};
    lr->filter_out.clear();
    lr->fallback_cliques.reset();

    if (progress_ != nullptr) {
      // Cliques count at delivery (post-filter, the emission the caller
      // saw), levels finish in delivery order — matching the serial walk.
      progress_->AddCliques(out.cliques_emitted - emitted_before);
      progress_->FinishLevel(lr->level);
    }
  }

  /// A microsecond window rebased to seconds since the engine epoch.
  obs::TimeRange Range(int64_t begin_us, int64_t end_us) const {
    return obs::TimeRange{
        static_cast<double>(begin_us - epoch_us_) * 1e-6,
        static_cast<double>(end_us - epoch_us_) * 1e-6};
  }

  /// mu_ held. The level's graph feeds its child's Induce, so it is freed
  /// only once the level is delivered and the child (if any) has induced.
  void MaybeReleaseInputs(LevelRun* lr) {
    if (!lr->delivered) return;
    if (lr->has_child && !lr->child_induced) return;
    lr->owned_graph = Graph();
    lr->graph = nullptr;
    lr->cut = decomp::CutResult();
    lr->to_original = {};
    ReleaseTracked(lr->graph_bytes);
    lr->graph_bytes = 0;
  }

  /// Charges `bytes` against the budget and the mem.bytes_charged counter.
  void ChargeTracked(uint64_t bytes) {
    if (bytes == 0) return;
    budget_.Charge(bytes);
    metrics_.RecordCharge(bytes);
  }

  /// Releases `bytes` and wakes any admission waiter.
  void ReleaseTracked(uint64_t bytes) {
    if (bytes == 0) return;
    budget_.Release(bytes);
    if (budget_.limited()) admit_cv_.notify_all();
  }

  /// Admission gate for one analysis task's workspace charge. Under a
  /// budget, a task that would push the tracked total past the limit waits
  /// while other analyses are in flight — the first analysis always
  /// admits, so an undersized budget degrades to serial admission instead
  /// of deadlocking.
  void AdmitAnalysis(uint32_t level, uint64_t bytes) {
    if (!budget_.limited()) {
      ChargeTracked(bytes);
      return;
    }
    std::unique_lock<std::mutex> lock(admit_mu_);
    WaitForBudget(lock, level, bytes, nullptr);
    ++analyses_in_flight_;
    ChargeTracked(bytes);
  }

  /// Gate for a newly grown block's materialized charge, on the level's
  /// decompose worker. Under a budget the worker additionally waits while
  /// materialized blocks are outstanding, so block emission stays
  /// budget-bound — and while it waits it runs queued analyses itself
  /// (WaitForBudget), which is what guarantees progress when every pool
  /// worker is inside a decompose task (DESIGN.md §11).
  void AdmitBlock(LevelRun* lr, uint64_t bytes) {
    if (!budget_.limited()) {
      ChargeTracked(bytes);
      return;
    }
    std::unique_lock<std::mutex> lock(admit_mu_);
    WaitForBudget(lock, lr->level, bytes, lr);
    ++blocks_outstanding_;
    ChargeTracked(bytes);
  }

  /// admit_mu_ held via `lock`. Waits while charging `bytes` would cross
  /// the budget *and* something else holds gated bytes it will release:
  /// an in-flight analysis, or — for the block gate (`decomposing` set) —
  /// an outstanding block. A block-gate waiter releases the lock to flush
  /// its level's coalesce batch and run queued analyses on this thread;
  /// it sleeps only when the queue is empty, i.e. when every outstanding
  /// block's analysis is already running elsewhere. The sleep polls: sink
  /// flushes release budget without an engine notification, so a pure
  /// wait could miss its wakeup. Returning with the lock held makes the
  /// caller's check-then-charge atomic — were the charge outside, every
  /// waiter released by one budget check could charge concurrently and
  /// overshoot together.
  void WaitForBudget(std::unique_lock<std::mutex>& lock, uint32_t level,
                     uint64_t bytes, LevelRun* decomposing) {
    const auto must_wait = [&] {
      if (!budget_.WouldExceed(bytes)) return false;
      return analyses_in_flight_ > 0 ||
             (decomposing != nullptr && blocks_outstanding_ > 0);
    };
    if (!must_wait()) return;
    const int64_t begin_us = obs::NowMicros();
    while (must_wait()) {
      if (decomposing != nullptr) {
        lock.unlock();
        const bool helped = HelpAnalyze(decomposing);
        lock.lock();
        if (helped) continue;
      }
      admit_cv_.wait_for(lock, std::chrono::milliseconds(2));
    }
    const int64_t end_us = obs::NowMicros();
    admission_stalls_.fetch_add(1, std::memory_order_relaxed);
    admission_stall_micros_.fetch_add(static_cast<uint64_t>(end_us - begin_us),
                                      std::memory_order_relaxed);
    metrics_.RecordAdmissionStall(static_cast<uint64_t>(end_us - begin_us));
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.begin_us = begin_us;
      e.end_us = end_us;
      e.kind = obs::SpanKind::kAdmission;
      e.level = level;
      e.args[0] = bytes;
      e.args[1] = budget_.charged();
      e.args[2] = budget_.limit();
      trace_->Record(e);
    }
  }

  /// Called by a decompose worker held at the block gate, without
  /// admit_mu_: dispatches the level's pending batch (so none of its
  /// charged blocks lacks a queued analysis), then runs the costliest
  /// queued analysis task here. Returns false when the queue was empty.
  bool HelpAnalyze(LevelRun* lr) {
    FlushBatch(lr);
    // The helped analyses book themselves; their counter delta is carved
    // out of the decompose window that hosts them.
    TaskWindow helped(sinks_);
    const bool ran = queue_.RunNext();
    helped.Stop();
    lr->decompose_helped += helped.counters();
    return ran;
  }

  /// Frees a finished block and releases its materialized charge and
  /// outstanding slot.
  void ReleaseBlock(BlockExec* exec) {
    exec->block = decomp::Block();
    if (budget_.limited()) {
      std::lock_guard<std::mutex> lock(admit_mu_);
      MCE_DCHECK(blocks_outstanding_ > 0);
      --blocks_outstanding_;
    }
    ReleaseTracked(exec->record.bytes);
  }

  /// Releases an admitted analysis's workspace charge and its in-flight
  /// slot.
  void FinishAnalysis(uint64_t bytes) {
    ReleaseTracked(bytes);
    if (budget_.limited()) {
      {
        std::lock_guard<std::mutex> lock(admit_mu_);
        --analyses_in_flight_;
      }
      admit_cv_.notify_all();
    }
  }

  const Graph& original_;
  const decomp::FindMaxCliquesOptions& options_;
  const decomp::LeveledCliqueCallback& emit_;
  /// The ReduceTask's state; set once in Run() before any pipeline task
  /// is submitted, read-only afterwards (safe unlocked from workers).
  ReducePrepass prep_;
  const reduce::ReductionMap* expansion_ = nullptr;
  const decomp::BlocksOptions blocks_options_;
  const decomp::BlockAnalysisOptions analysis_options_;
  obs::TraceRecorder* const trace_;
  RunMetrics metrics_;
  /// Live progress accounting; null when the run is not observed.
  obs::ProgressEstimator* const progress_;
  /// Per-task hardware-counter attribution (options.profile). Pooled
  /// tasks run on disjoint worker threads, so every task's delta is
  /// accumulated as-is — per-kind sums reproduce the run total exactly.
  obs::ProfileAccumulator profile_;
  /// The task windows' sinks: trace_, and profile_ when profiling.
  TaskSinks sinks_;

  // Memory accounting. Declared before levels_: the sinks owned by
  // LevelRun records release against budget_ in their destructors, so the
  // budget must outlive the level deque (members destroy in reverse
  // declaration order).
  MemoryBudget budget_;
  SpillConfig spill_config_;
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  size_t analyses_in_flight_ = 0;   // admit_mu_
  size_t blocks_outstanding_ = 0;   // admit_mu_; blocks charged, not freed
  std::atomic<uint64_t> admission_stalls_{0};
  std::atomic<uint64_t> admission_stall_micros_{0};

  /// Zero point of the run's stats timebase (spans stay absolute; only
  /// the derived LevelStats windows are rebased).
  const int64_t epoch_us_ = obs::NowMicros();
  /// Analysis hulls of delivered levels, in level order (calling thread
  /// only); feeds the overlap stat of the levels below them.
  std::vector<obs::TimeRange> analyze_windows_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<LevelRun>> levels_;
  bool chain_done_ = false;
  std::vector<BlockWorkspace> workspaces_;
  /// Ready analysis tasks (shards and unsplit blocks), dispatched largest
  /// predicted cost first by generic pull thunks on the pool.
  CostOrderedQueue queue_;
  // Declared last: its destructor drains tasks that touch the state above.
  ThreadPool pool_;
};

}  // namespace

decomp::StreamingStats RunPooled(const Graph& g,
                                 const decomp::FindMaxCliquesOptions& options,
                                 size_t num_threads,
                                 const decomp::LeveledCliqueCallback& emit) {
  MCE_CHECK_GE(options.max_block_size, 1u);
  PooledEngine engine(g, options, num_threads, emit);
  return engine.Run();
}

}  // namespace mce::exec
