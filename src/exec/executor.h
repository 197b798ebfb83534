// The execution engines that run the FIND-MAX-CLIQUES task graph
// (exec/task_graph.h). decomp::FindMaxCliquesStreaming picks one from
// options.executor / options.num_threads.
//
// Both engines honor the delivery contract of DESIGN.md §7: the clique
// callback and the block observer run only on the thread that called the
// engine, blocks surface in decomposition order, levels in recursion
// order — so both produce byte-identical emission. Both call the same
// task bodies and task window (exec/task_graph.h); what differs is
// scheduling:
//
//   RunSerial  — depth-first on the calling thread; each BlockTask runs
//                the moment DecomposeTask emits its block, so memory stays
//                O(graph + largest block).
//   RunPooled  — BlockTasks dispatch to a shared ThreadPool as BuildBlocks
//                emits them, FilterTasks chunk across the pool once the
//                level's last BlockTask finishes, and DecomposeTask(h+1)
//                is submitted right after Cut(h) so it overlaps the tail
//                of level-h analysis.
//
// The simulated cluster (dist::RunDistributedMce) consumes the block
// observer stream of whichever engine runs.

#ifndef MCE_EXEC_EXECUTOR_H_
#define MCE_EXEC_EXECUTOR_H_

#include <cstddef>
#include <cstdint>

#include "decomp/find_max_cliques.h"
#include "graph/graph.h"

namespace mce::exec {

/// Runs the full task graph over `g` on the calling thread. `emit`
/// receives each maximal clique of g (sorted, original ids) exactly once,
/// already past the Lemma-1 filter, in an order independent of the engine.
decomp::StreamingStats RunSerial(const Graph& g,
                                 const decomp::FindMaxCliquesOptions& options,
                                 const decomp::LeveledCliqueCallback& emit);

/// RunSerial's contract on a pool of `num_threads` workers (0 is treated
/// as 1; resolve "all hardware threads" with ResolveThreadCount first).
decomp::StreamingStats RunPooled(const Graph& g,
                                 const decomp::FindMaxCliquesOptions& options,
                                 size_t num_threads,
                                 const decomp::LeveledCliqueCallback& emit);

/// 0 means one worker per hardware thread; otherwise the request stands.
size_t ResolveThreadCount(uint32_t requested);

}  // namespace mce::exec

#endif  // MCE_EXEC_EXECUTOR_H_
