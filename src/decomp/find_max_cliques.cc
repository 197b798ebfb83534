#include "decomp/find_max_cliques.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/executor.h"

namespace mce::decomp {

uint64_t FindMaxCliquesResult::CliquesFromLevel(uint32_t min_level) const {
  uint64_t count = 0;
  for (uint32_t l : origin_level) {
    if (l >= min_level) ++count;
  }
  return count;
}

// Both entry points are thin drivers over the execution engine
// (src/exec): options.executor / options.num_threads pick the engine, and
// every engine produces byte-identical emission (DESIGN.md §7).

StreamingStats FindMaxCliquesStreaming(const Graph& g,
                                       const FindMaxCliquesOptions& options,
                                       const LeveledCliqueCallback& emit) {
  const size_t threads = exec::ResolveThreadCount(options.num_threads);
  const bool pooled = options.executor == ExecutorKind::kPooled ||
                      (options.executor == ExecutorKind::kAuto && threads > 1);
  return pooled ? exec::RunPooled(g, options, threads, emit)
                : exec::RunSerial(g, options, emit);
}

FindMaxCliquesResult FindMaxCliques(const Graph& g,
                                    const FindMaxCliquesOptions& options) {
  std::vector<std::pair<Clique, uint32_t>> found;
  FindMaxCliquesResult out;
  static_cast<StreamingStats&>(out) = FindMaxCliquesStreaming(
      g, options, [&found](std::span<const NodeId> clique, uint32_t level) {
        found.emplace_back(Clique(clique.begin(), clique.end()), level);
      });
  std::sort(found.begin(), found.end());
  for (auto& [clique, origin] : found) {
    out.origin_level.push_back(origin);
    out.cliques.Add(std::move(clique));  // already sorted
  }
  return out;
}

}  // namespace mce::decomp
