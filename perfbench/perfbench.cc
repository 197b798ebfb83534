// Repository benchmark program: end-to-end maximal-clique enumeration time
// and memory on two paper stand-ins, plus an outside-in per-layer split.
//
// One invocation runs one workload. It generates the workload's graph,
// numbers its vertices by --seed, writes it once as MCECSR02, and from then
// on only drives the library through its public functions on the loaded
// file:
//
//  * Set-up: load the file several times (ReadCsrBinary) and run the
//    layered driver once. The layered driver is a serial, outside-in walk
//    of the pipeline — ReduceGraph, then per level Cut,
//    BuildBlocksStreaming, AnalyzeBlock, the m-core fallback
//    EnumerateMaximalCliques, IsMaximalInGraph and Induce — that times
//    each call. Its clique count and order-independent hash are the
//    reference every measured run must reproduce.
//  * --trace 0: FindMaxCliquesStreaming on the serial executor, each run
//    paired with a run of this file's textbook enumerator on the same
//    graph, for --seconds; the median ratio of the two times is reported.
//  * --trace 1: the layered driver's numbers, a whole-graph run of the
//    m-core fallback kernel, serial, pooled@2 and pooled@4 wall times with
//    the pooled executor's telemetry, on fb-blocks an out-of-core leg
//    (OpenMmapGraph under a memory budget, spilling), and the tracing /
//    profiling / heartbeat overheads by a paired, order-alternating
//    best-of-N estimator.
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; everything before it is the human-readable detail (the
// build/host stamp, the graph's shape, and the per-level Figure 7/8
// table). Exit status is 0 only when every run reproduced the reference.

#include <algorithm>
#include <chrono>
#include <cpuid.h>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "decision/decision_tree.h"
#include "decomp/block_analysis.h"
#include "decomp/blocks.h"
#include "decomp/cut.h"
#include "decomp/filter.h"
#include "decomp/find_max_cliques.h"
#include "exec/task_graph.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "graph/builder.h"
#include "graph/core_decomposition.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "mce/enumerator.h"
#include "mce/workspace.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "reduce/reduction.h"
#include "util/random.h"

namespace mce::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------------
// Clique fingerprint: count plus an order-independent 64-bit hash (the sum,
// mod 2^64, of a per-clique hash that is itself independent of member
// order), so executors that emit in different orders still compare equal.

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Fingerprint {
  uint64_t count = 0;
  uint64_t hash = 0;

  void Add(std::span<const NodeId> clique) {
    uint64_t acc = clique.size();
    for (NodeId v : clique) acc += Mix64(v);
    hash += Mix64(acc);
    ++count;
  }
  bool operator==(const Fingerprint&) const = default;
};

// ---------------------------------------------------------------------------
// The yardstick: a textbook serial enumerator owned by this file, the
// degeneracy-ordered Bron-Kerbosch with Tomita pivoting of Eppstein,
// Loeffler and Strash, over sorted adjacency vectors. It copies the graph
// at set-up and shares no code with the library, so no library change
// moves it. Run back to back with the library's serial executor, it
// measures how fast the host is at that moment: on a shared host, whole
// runs slow down by a third or more for minutes, and the ratio of the two
// times cancels most of that.

class TextbookEnumerator {
 public:
  explicit TextbookEnumerator(const Graph& g) : n_(g.num_nodes()) {
    offsets_.assign(n_ + 1, 0);
    for (NodeId v = 0; v < n_; ++v) {
      const std::span<const NodeId> nbrs = g.Neighbors(v);
      adjacency_.insert(adjacency_.end(), nbrs.begin(), nbrs.end());
      offsets_[v + 1] = adjacency_.size();
    }
    // Degeneracy order by repeatedly removing a minimum-degree vertex
    // (bucket queue, O(n + m)).
    std::vector<uint32_t> degree(n_);
    uint32_t max_degree = 0;
    for (NodeId v = 0; v < n_; ++v) {
      degree[v] = static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
      max_degree = std::max(max_degree, degree[v]);
    }
    std::vector<std::vector<NodeId>> buckets(max_degree + 1);
    for (NodeId v = 0; v < n_; ++v) buckets[degree[v]].push_back(v);
    rank_.assign(n_, kUnranked);
    order_.reserve(n_);
    uint32_t d = 0;
    while (order_.size() < n_) {
      if (d > 0 && !buckets[d - 1].empty()) --d;
      while (buckets[d].empty()) ++d;
      const NodeId v = buckets[d].back();
      buckets[d].pop_back();
      if (rank_[v] != kUnranked || degree[v] != d) continue;  // stale entry
      rank_[v] = static_cast<NodeId>(order_.size());
      order_.push_back(v);
      for (NodeId w : Neighbors(v)) {
        if (rank_[w] == kUnranked) buckets[--degree[w]].push_back(w);
      }
    }
  }

  Fingerprint Run() {
    Fingerprint out;
    std::vector<NodeId> p, x;
    for (NodeId v : order_) {
      p.clear();
      x.clear();
      for (NodeId w : Neighbors(v)) (rank_[w] > rank_[v] ? p : x).push_back(w);
      clique_.assign(1, v);
      Expand(p, x, &out);
    }
    return out;
  }

 private:
  static constexpr NodeId kUnranked = ~NodeId{0};

  std::span<const NodeId> Neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  // out = a ∩ b for sorted a, b: a merge, or binary searches of b when a
  // is much the smaller.
  static void Intersect(std::span<const NodeId> a, std::span<const NodeId> b,
                        std::vector<NodeId>* out) {
    out->clear();
    if (a.size() * 16 < b.size()) {
      for (NodeId v : a) {
        if (std::binary_search(b.begin(), b.end(), v)) out->push_back(v);
      }
      return;
    }
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(*out));
  }

  static size_t IntersectionSize(std::span<const NodeId> a,
                                 std::span<const NodeId> b) {
    size_t count = 0;
    if (a.size() * 16 < b.size()) {
      for (NodeId v : a) count += std::binary_search(b.begin(), b.end(), v);
      return count;
    }
    for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        ++count, ++i, ++j;
      }
    }
    return count;
  }

  // Reports every maximal clique that extends clique_ by vertices of p and
  // by none of x (both sorted; both consumed).
  void Expand(std::vector<NodeId>& p, std::vector<NodeId>& x,
              Fingerprint* out) {
    if (p.empty()) {
      if (x.empty()) out->Add(clique_);
      return;
    }
    // Tomita pivot: the vertex of p ∪ x with the most neighbours in p.
    NodeId pivot = p.front();
    size_t best = 0;
    for (const std::vector<NodeId>* set : {&p, &x}) {
      for (NodeId u : *set) {
        const size_t covered = IntersectionSize(p, Neighbors(u));
        if (covered > best) {
          best = covered;
          pivot = u;
        }
      }
    }
    std::vector<NodeId> branch;
    const std::span<const NodeId> pivot_nbrs = Neighbors(pivot);
    std::set_difference(p.begin(), p.end(), pivot_nbrs.begin(),
                        pivot_nbrs.end(), std::back_inserter(branch));
    std::vector<NodeId> next_p, next_x;
    for (NodeId v : branch) {
      Intersect(p, Neighbors(v), &next_p);
      Intersect(x, Neighbors(v), &next_x);
      clique_.push_back(v);
      Expand(next_p, next_x, out);
      clique_.pop_back();
      p.erase(std::lower_bound(p.begin(), p.end(), v));
      x.insert(std::lower_bound(x.begin(), x.end(), v), v);
    }
  }

  NodeId n_;
  std::vector<uint64_t> offsets_;
  std::vector<NodeId> adjacency_;
  std::vector<NodeId> order_;  // degeneracy order
  std::vector<NodeId> rank_;   // position in order_
  std::vector<NodeId> clique_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  Graph graph;          // generated input (written to disk, then dropped)
  uint32_t degeneracy = 0;
  uint32_t m = 0;       // block bound
  bool reduce = false;
  bool oocore = false;  // --trace 1 adds the out-of-core leg
};

// Renumbers the vertices of `g` by a random permutation drawn from `seed`
// (seed 0 keeps the numbering). The graph and its cliques stay the same up
// to the ids, while the file bytes, adjacency order, degree-order ties and
// block growth order change.
Graph Relabel(const Graph& g, uint64_t seed) {
  if (seed == 0) return g;
  std::vector<NodeId> id(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) id[v] = v;
  Rng rng(seed);
  rng.Shuffle(&id);
  GraphBuilder builder(g.num_nodes());
  builder.ReserveEdges(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (u < v) builder.AddEdge(id[u], id[v]);
    }
  }
  return builder.Build();
}

// Each workload is one stand-in graph drawn with a fixed generator seed;
// --seed picks its vertex numbering. Drawing the graph itself from --seed
// would swing the facebook stand-in's clique count about 2x between seeds
// (scaled down, it plants only 12 hub cliques), and the timings with it.
Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "fb-blocks") {
    w.graph = gen::GenerateSocialNetwork(gen::FacebookConfig(0.2));
    w.m = 60;
    w.oocore = true;
  } else if (name == "powerlaw-reduce") {
    Rng rng(29);
    w.graph = gen::PowerLawConfigurationModel(600000, 2.5, 1, 800, &rng);
    w.m = 400;
    w.reduce = true;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    std::exit(2);
  }
  w.graph = Relabel(w.graph, seed);
  w.degeneracy = Degeneracy(w.graph);
  return w;
}

// ---------------------------------------------------------------------------
// The layered (outside-in) driver.

struct LevelRow {
  uint64_t nodes = 0, edges = 0, feasible = 0, hubs = 0, blocks = 0;
  double induce_s = 0;   // Induce that produced this level's graph
  double cut_s = 0;
  double blocks_s = 0;   // block growth, analysis callbacks excluded
  double analyze_s = 0;  // AnalyzeBlock, or the fallback MCE
  bool fallback = false;
  uint64_t cliques = 0;  // produced by the level, before the filter
  double filter_s = 0;
  uint64_t kept = 0;     // emitted after the filter
};

struct StorageBucket {
  double seconds = 0;
  uint64_t cliques = 0;
};

struct LayerReport {
  Fingerprint fingerprint;
  std::vector<LevelRow> levels;
  double reduce_s = 0;
  reduce::ReductionStats reduction;
  uint64_t block_nodes = 0;
  std::map<StorageKind, StorageBucket> by_storage;
  uint64_t filter_checked = 0;
  uint64_t filter_kept = 0;
  double total_s = 0;  // wall time of the whole layered walk

  double SummedLayerSeconds() const {
    double s = reduce_s;
    for (const LevelRow& l : levels) {
      s += l.induce_s + l.cut_s + l.blocks_s + l.analyze_s + l.filter_s;
    }
    return s;
  }
};

LayerReport RunLayered(const Graph& g,
                       const decomp::FindMaxCliquesOptions& options) {
  LayerReport out;
  const Clock::time_point walk_start = Clock::now();
  const Graph* current = &g;
  reduce::ReductionResult reduced;
  const reduce::ReductionMap* expansion = nullptr;
  if (options.reduce) {
    const Clock::time_point t = Clock::now();
    reduced = reduce::ReduceGraph(g, reduce::ReduceOptions{});
    out.reduce_s = SecondsSince(t);
    out.reduction = reduced.stats;
    if (!reduced.unchanged) {
      current = &reduced.graph;
      expansion = &reduced.map;
    }
    for (size_t i = 0; i < reduced.map.num_trivial_cliques(); ++i) {
      out.fingerprint.Add(reduced.map.TrivialClique(i));
    }
  }

  const decomp::BlocksOptions blocks_options = exec::BlocksOptionsFor(options);
  const decomp::BlockAnalysisOptions analysis_options =
      exec::AnalysisOptionsFor(options);
  BlockWorkspace workspace;
  Graph owned;
  std::vector<NodeId> to_original;  // level ids -> pipeline-graph ids
  uint32_t level = 0;
  double pending_induce_s = 0;
  // Level >= 1 cliques in original ids, waiting for the Lemma-1 filter.
  std::vector<NodeId> pending_ids;
  std::vector<size_t> pending_ends;
  Clique mapped;
  Clique expanded;
  LevelRow* row = nullptr;

  // Maps a level clique to original ids; level-0 cliques are maximal by
  // construction, deeper ones queue for the filter.
  auto deliver = [&](std::span<const NodeId> c) {
    ++row->cliques;
    mapped.clear();
    for (NodeId v : c) {
      mapped.push_back(to_original.empty() ? v : to_original[v]);
    }
    const Clique* original = &mapped;
    if (expansion != nullptr) {
      if (!expansion->ExpandClique(mapped, &expanded)) return;
      original = &expanded;
    } else {
      std::sort(mapped.begin(), mapped.end());
    }
    if (level == 0) {
      out.fingerprint.Add(*original);
      ++row->kept;
      return;
    }
    pending_ids.insert(pending_ids.end(), original->begin(), original->end());
    pending_ends.push_back(pending_ids.size());
  };

  for (;;) {
    LevelRow& current_row = out.levels.emplace_back();
    row = &current_row;
    row->nodes = current->num_nodes();
    row->edges = current->num_edges();
    row->induce_s = pending_induce_s;

    Clock::time_point t = Clock::now();
    decomp::CutResult cut = decomp::Cut(*current, options.max_block_size);
    row->cut_s = SecondsSince(t);
    row->feasible = cut.feasible.size();
    row->hubs = cut.hubs.size();

    const bool fallback = cut.feasible.empty() && current->num_nodes() > 0;
    if (fallback) {
      row->fallback = true;
      t = Clock::now();
      EnumerateMaximalCliques(*current, options.fallback, deliver);
      row->analyze_s = SecondsSince(t);
    } else {
      Clock::time_point segment = Clock::now();
      decomp::BuildBlocksStreaming(
          *current, cut.feasible, blocks_options, [&](decomp::Block&& block) {
            row->blocks_s += SecondsSince(segment);
            ++row->blocks;
            out.block_nodes += block.num_nodes();
            const uint64_t before = row->cliques;
            const Clock::time_point a = Clock::now();
            const decomp::BlockAnalysisResult result = decomp::AnalyzeBlock(
                block, analysis_options, deliver, &workspace);
            const double seconds = SecondsSince(a);
            row->analyze_s += seconds;
            StorageBucket& bucket = out.by_storage[result.used.storage];
            bucket.seconds += seconds;
            bucket.cliques += row->cliques - before;
            segment = Clock::now();
          });
      row->blocks_s += SecondsSince(segment);
    }

    // The telescoped Lemma-1 filter: a level >= 1 clique is kept iff it is
    // maximal in the original graph.
    t = Clock::now();
    size_t begin = 0;
    for (size_t end : pending_ends) {
      expanded.assign(pending_ids.begin() + begin, pending_ids.begin() + end);
      begin = end;
      ++out.filter_checked;
      if (decomp::IsMaximalInGraph(g, expanded)) {
        ++out.filter_kept;
        ++row->kept;
        out.fingerprint.Add(expanded);
      }
    }
    row->filter_s = SecondsSince(t);
    pending_ids.clear();
    pending_ends.clear();

    if (fallback || cut.hubs.empty()) break;
    t = Clock::now();
    InducedSubgraph sub = Induce(*current, cut.hubs);
    pending_induce_s = SecondsSince(t);
    std::vector<NodeId> composed(sub.to_parent.size());
    for (size_t i = 0; i < composed.size(); ++i) {
      composed[i] = to_original.empty() ? sub.to_parent[i]
                                        : to_original[sub.to_parent[i]];
    }
    to_original = std::move(composed);
    owned = std::move(sub.graph);
    current = &owned;
    ++level;
  }
  out.total_s = SecondsSince(walk_start);
  return out;
}

// ---------------------------------------------------------------------------
// Measured end-to-end runs.

struct Leg {
  const char* name;
  decomp::ExecutorKind executor;
  uint32_t threads;
};

constexpr Leg kPooled4{"pooled4", decomp::ExecutorKind::kPooled, 4};
constexpr Leg kPooled2{"pooled2", decomp::ExecutorKind::kPooled, 2};
constexpr Leg kSerial{"serial", decomp::ExecutorKind::kSerial, 1};

struct RunResult {
  double wall_s = 0;
  decomp::StreamingStats stats;
  Fingerprint fingerprint;
};

// Observability attached to a run (each off by default).
struct Instrumentation {
  bool trace = false;
  bool profile = false;
  std::string heartbeat_path;  // 50 ms heartbeat stream when non-empty
};

class Runner {
 public:
  Runner(const Graph& g, decomp::FindMaxCliquesOptions base,
         Fingerprint reference)
      : g_(g), base_(std::move(base)), reference_(reference) {}

  RunResult Run(const Leg& leg, const Instrumentation& inst = {}) {
    decomp::FindMaxCliquesOptions options = base_;
    options.executor = leg.executor;
    options.num_threads = leg.threads;
    options.profile = inst.profile;
    obs::TraceRecorder recorder;
    if (inst.trace) options.trace = &recorder;
    obs::ProgressEstimator progress;
    obs::TelemetryOptions telemetry;
    telemetry.out_path = inst.heartbeat_path;
    telemetry.interval_ms = 50;
    obs::TelemetrySampler sampler(&progress, telemetry);
    if (!inst.heartbeat_path.empty()) {
      options.progress = &progress;
      sampler.Start();
    }
    RunResult r;
    const Clock::time_point start = Clock::now();
    r.stats = decomp::FindMaxCliquesStreaming(
        g_, options, [&r](std::span<const NodeId> c, uint32_t) {
          r.fingerprint.Add(c);
        });
    r.wall_s = SecondsSince(start);
    if (!inst.heartbeat_path.empty()) sampler.Finish(true);
    ++attempted_;
    if (!(r.fingerprint == reference_)) {
      ++failed_;
      std::printf(
          "MISMATCH %s: %llu cliques hash %016llx, reference %llu hash "
          "%016llx\n",
          leg.name, static_cast<unsigned long long>(r.fingerprint.count),
          static_cast<unsigned long long>(r.fingerprint.hash),
          static_cast<unsigned long long>(reference_.count),
          static_cast<unsigned long long>(reference_.hash));
    }
    return r;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  const Graph& g_;
  const decomp::FindMaxCliquesOptions base_;
  const Fingerprint reference_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintLevelTable(const LayerReport& r) {
  std::printf(
      "figures 7/8 per level (serial layered driver):\n"
      "%5s %8s %9s %8s %6s %7s %9s %9s %9s %12s %11s %9s %9s %9s\n",
      "level", "nodes", "edges", "feasible", "hubs", "blocks", "induce_s",
      "cut_s", "blocks_s", "fig7_decomp_s", "fig8_mce_s", "cliques",
      "filter_s", "kept");
  for (size_t l = 0; l < r.levels.size(); ++l) {
    const LevelRow& row = r.levels[l];
    std::printf(
        "%5zu %8llu %9llu %8llu %6llu %7llu %9.4f %9.4f %9.4f %12.4f "
        "%11.4f %9llu %9.4f %9llu%s\n",
        l, static_cast<unsigned long long>(row.nodes),
        static_cast<unsigned long long>(row.edges),
        static_cast<unsigned long long>(row.feasible),
        static_cast<unsigned long long>(row.hubs),
        static_cast<unsigned long long>(row.blocks), row.induce_s, row.cut_s,
        row.blocks_s, row.induce_s + row.cut_s + row.blocks_s, row.analyze_s,
        static_cast<unsigned long long>(row.cliques), row.filter_s,
        static_cast<unsigned long long>(row.kept),
        row.fallback ? "  (m-core fallback)" : "");
  }
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds < 1 ||
      (a.trace != 0 && a.trace != 1) || a.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: mce_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    std::exit(2);
  }
  return a;
}

// Paired, order-alternating best-of-N: each pair runs the plain and the
// instrumented configuration back to back, alternating which goes first so
// position effects (turbo decay, cache warmth) fall on both sides; the
// ratio of the two minima estimates the instrumentation's cost.
struct PairedRatio {
  double best_off = 0;
  double best_on = 0;
  int pairs = 0;

  // Runs one pair; returns the plain run.
  RunResult AddPair(Runner& runner, const Instrumentation& inst) {
    const bool on_first = pairs % 2 == 1;
    double on = 0;
    if (on_first) on = runner.Run(kPooled4, inst).wall_s;
    RunResult off = runner.Run(kPooled4);
    if (!on_first) on = runner.Run(kPooled4, inst).wall_s;
    if (pairs == 0 || off.wall_s < best_off) best_off = off.wall_s;
    if (pairs == 0 || on < best_on) best_on = on;
    ++pairs;
    return off;
  }
  double Ratio() const { return best_off > 0 ? best_on / best_off : 0; }
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("env: nproc=%u cpu=\"%s\" compiler=\"%s\" build_type=%s "
              "optimized=%d sanitizer=%d\n",
              nproc, CpuModel().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, OptimizedBuild() ? 1 : 0,
              SanitizedBuild() ? 1 : 0);
  if (!OptimizedBuild() || SanitizedBuild()) {
    std::fprintf(stderr, "refusing to time an unoptimized or sanitizer "
                         "build\n");
    return 2;
  }

  // --- Set-up: generate, write once, load. -------------------------------
  std::filesystem::create_directories(args.work_dir);
  const std::string input = args.work_dir + "/input.mcsr";
  decomp::FindMaxCliquesOptions base;
  uint32_t degeneracy = 0;
  bool oocore_leg = false;
  {
    const Workload w = MakeWorkload(args.workload, args.seed);
    degeneracy = w.degeneracy;
    oocore_leg = w.oocore;
    base.max_block_size = w.m;
    base.reduce = w.reduce;
    const Status st = WriteCsrBinary(w.graph, input);
    if (!st.ok()) {
      std::fprintf(stderr, "write %s: %s\n", input.c_str(),
                   st.ToString().c_str());
      return 2;
    }
  }
  const decision::DecisionTree tree = decision::PaperDecisionTree();
  base.tree = &tree;

  auto load = [&](bool as_mmap) -> Graph {
    Result<Graph> r = as_mmap ? OpenMmapGraph(input) : ReadCsrBinary(input);
    if (!r.ok()) {
      std::fprintf(stderr, "load %s: %s\n", input.c_str(),
                   r.status().ToString().c_str());
      std::exit(2);
    }
    return std::move(r).value();
  };
  // setup_s is the median of many loads of the input file: a batch here
  // and, on --trace 0, one more batch per measurement round, so the
  // samples spread over the whole run.
  std::vector<double> load_s;
  Graph g;
  auto time_loads = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const Clock::time_point t = Clock::now();
      g = load(false);
      load_s.push_back(SecondsSince(t));
    }
  };
  time_loads(31);
  const double setup_s = Median(load_s);
  const double load_bytes =
      static_cast<double>(std::filesystem::file_size(input));

  // The layered driver: reference fingerprint and per-layer split.
  const LayerReport layers = RunLayered(g, base);
  const Fingerprint reference = layers.fingerprint;

  std::printf("workload: %s seed=%llu nodes=%u edges=%llu degeneracy=%u "
              "m=%u reduce=%d levels=%zu fallback=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              degeneracy, base.max_block_size, base.reduce ? 1 : 0,
              layers.levels.size(), layers.levels.back().fallback ? 1 : 0);
  std::printf("reference: %llu cliques, hash %016llx (layered driver %.4fs)\n",
              static_cast<unsigned long long>(reference.count),
              static_cast<unsigned long long>(reference.hash),
              layers.total_s);

  Runner runner(g, base, reference);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  if (args.trace == 0) {
    // The library's serial executor, paired with the textbook enumerator.
    // A single thread is what a shared 4-vCPU host disturbs least (under
    // 1-3 competing busy threads the serial run slows 5-17%, pooled@2 up to
    // 40% and pooled@4 up to 70%), and the pairing cancels most of the
    // host's slow phases. One untimed run of each warms the allocator and the
    // page cache and checks the textbook enumerator against the
    // reference; then rounds of one pair (order alternating) and a load
    // batch run for --seconds, while the longest round so far still fits.
    TextbookEnumerator textbook(g);
    runner.Run(kSerial);
    ++attempted;
    if (!(textbook.Run() == reference)) {
      ++failed;
      std::printf("MISMATCH textbook enumerator vs layered driver\n");
    }
    const Clock::time_point measure_start = Clock::now();
    std::vector<double> wall, textbook_wall, ratio, peak;
    double round_s = 0;
    for (int round = 0;
         round < 1 || SecondsSince(measure_start) + round_s <= args.seconds;
         ++round) {
      const Clock::time_point round_start = Clock::now();
      double textbook_s = 0;
      auto run_textbook = [&] {
        const Clock::time_point t = Clock::now();
        const Fingerprint f = textbook.Run();
        textbook_s = SecondsSince(t);
        ++attempted;
        if (!(f == reference)) ++failed;
      };
      if (round % 2 == 1) run_textbook();
      const RunResult r = runner.Run(kSerial);
      if (round % 2 == 0) run_textbook();
      wall.push_back(r.wall_s);
      textbook_wall.push_back(textbook_s);
      ratio.push_back(r.wall_s / textbook_s);
      peak.push_back(static_cast<double>(r.stats.memory.peak_tracked_bytes));
      time_loads(5);
      round_s = std::max(round_s, SecondsSince(round_start));
    }
    auto print_samples = [](const char* name, std::vector<double> v) {
      std::printf("  %-8s", name);
      for (double x : v) std::printf(" %.4f", x);
      std::sort(v.begin(), v.end());
      std::printf("  (median %.4f min %.4f max %.4f over %zu)\n", Median(v),
                  v.front(), v.back(), v.size());
    };
    print_samples("serial", wall);
    print_samples("textbook", textbook_wall);
    print_samples("ratio", ratio);
    attempted += runner.attempted();
    failed += runner.failed();
    const double fail_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);
    std::printf("serial_over_textbook %.4f (wall_s.serial %.4f s, textbook "
                "%.4f s), setup_s %.6f s (%zu loads), peak_mem_mb %.3f MB, "
                "fail_frac %.6f (%llu of %llu runs)\n",
                Median(ratio), Median(wall), Median(textbook_wall),
                Median(load_s), load_s.size(), Median(peak) / 1e6, fail_frac,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    metrics = {
        {"serial_over_textbook", Median(ratio), "ratio"},
        {"setup_s", Median(load_s), "s"},
        {"peak_mem_mb", Median(peak) / 1e6, "MB"},
        {"ok_frac", 1.0 - fail_frac, "ratio"},
    };
  } else {
    PrintLevelTable(layers);
    // One untimed pooled@4 run warms the pool, the allocator arenas and the
    // page cache, and sets the out-of-core leg's budget: 60% of its tracked
    // peak.
    const uint64_t peak =
        runner.Run(kPooled4).stats.memory.peak_tracked_bytes;
    const uint64_t budget = oocore_leg ? peak * 60 / 100 : 0;
    // The out-of-core leg (fb-blocks only): the same file through
    // OpenMmapGraph under that budget, spilling clique chunks into the work
    // directory.
    const Graph mapped = oocore_leg ? load(true) : Graph();
    decomp::FindMaxCliquesOptions oocore_options = base;
    oocore_options.memory_budget_bytes = budget;
    oocore_options.spill_dir = args.work_dir;
    Runner oocore(mapped, oocore_options, reference);
    if (oocore_leg) {
      std::printf("out-of-core leg: mmap storage, budget_bytes=%llu\n",
                  static_cast<unsigned long long>(budget));
    }
    // The m-core fallback kernel (EnumerateMaximalCliques with the fallback
    // options) on the whole graph: neither workload's hub recursion reaches
    // the m-core, so the mce layer's fallback path is timed here.
    Fingerprint fallback_fingerprint;
    const Clock::time_point fallback_start = Clock::now();
    EnumerateMaximalCliques(g, base.fallback,
                            [&](std::span<const NodeId> c) {
                              fallback_fingerprint.Add(c);
                            });
    const double fallback_s = SecondsSince(fallback_start);
    const bool fallback_ok = fallback_fingerprint == reference;
    if (!fallback_ok) std::printf("MISMATCH whole-graph fallback kernel\n");
    const Clock::time_point measure_start = Clock::now();

    // Executor telemetry of pooled@4 runs, the serial and pooled@2 legs,
    // the out-of-core leg's memory telemetry, and the instrumentation
    // overheads.
    TextbookEnumerator textbook(g);
    uint64_t textbook_attempted = 0;
    uint64_t textbook_failed = 0;
    std::vector<double> p4_wall, p4_peak, p2_wall, serial_wall, textbook_wall, oocore_wall, util,
        idle, barrier, overlap, splits, spill_chunks, spill_bytes, stalls,
        stall_s, oocore_peak;
    PairedRatio trace_ratio, profile_ratio, heartbeat_ratio;
    Instrumentation traced, profiled, heartbeat;
    traced.trace = true;
    profiled.profile = true;
    heartbeat.heartbeat_path = args.work_dir + "/heartbeat.ndjson";
    // Every plain pooled@4 run feeds the executor telemetry.
    auto record = [&](const RunResult& r) {
      p4_wall.push_back(r.wall_s);
      p4_peak.push_back(static_cast<double>(r.stats.memory.peak_tracked_bytes));
      double block = 0, capacity = 0, id = 0, bar = 0, ov = 0, sp = 0;
      for (const decomp::LevelStats& l : r.stats.levels) {
        block += l.block_seconds;
        capacity += l.busiest_worker_seconds * std::max(1u, l.analyze_threads);
        id += l.idle_seconds;
        bar += l.barrier_idle_seconds;
        ov += l.overlap_seconds;
        sp += static_cast<double>(l.block_splits);
      }
      util.push_back(capacity > 0 ? block / capacity : 0);
      idle.push_back(id);
      barrier.push_back(bar);
      overlap.push_back(ov);
      splits.push_back(sp);
    };
    // Steps cycle serial, pooled@2, trace pair, profile pair, heartbeat
    // pair and, on fb-blocks, out-of-core; the first cycle always
    // completes, later steps run while the longest step so far still fits
    // in --seconds.
    const int kSteps = oocore_leg ? 6 : 5;
    double step_s = 0;
    for (int step = 0;
         step < kSteps ||
         SecondsSince(measure_start) + step_s <= args.seconds;
         ++step) {
      const Clock::time_point step_start = Clock::now();
      switch (step % kSteps) {
        case 0: {
          serial_wall.push_back(runner.Run(kSerial).wall_s);
          const Clock::time_point t = Clock::now();
          const Fingerprint f = textbook.Run();
          textbook_wall.push_back(SecondsSince(t));
          ++textbook_attempted;
          if (!(f == reference)) ++textbook_failed;
          break;
        }
        case 1:
          p2_wall.push_back(runner.Run(kPooled2).wall_s);
          break;
        case 2:
          record(trace_ratio.AddPair(runner, traced));
          break;
        case 3:
          record(profile_ratio.AddPair(runner, profiled));
          break;
        case 4:
          record(heartbeat_ratio.AddPair(runner, heartbeat));
          break;
        default: {
          const RunResult r = oocore.Run(kPooled4);
          const decomp::MemoryStats& mem = r.stats.memory;
          oocore_wall.push_back(r.wall_s);
          spill_chunks.push_back(static_cast<double>(mem.spill_chunks));
          spill_bytes.push_back(static_cast<double>(mem.spill_bytes));
          stalls.push_back(static_cast<double>(mem.admission_stalls));
          stall_s.push_back(mem.admission_stall_seconds);
          oocore_peak.push_back(static_cast<double>(mem.peak_tracked_bytes));
          break;
        }
      }
      step_s = std::max(step_s, SecondsSince(step_start));
    }
    attempted =
        runner.attempted() + oocore.attempted() + textbook_attempted + 1;
    failed = runner.failed() + oocore.failed() + textbook_failed +
             (fallback_ok ? 0 : 1);
    const double wall_s = Median(p4_wall);
    const double wall_serial = Median(serial_wall);
    std::printf("pooled4 median %.4fs over %zu runs, pooled2 median %.4fs "
                "over %zu runs, serial median %.4fs over %zu runs, "
                "out-of-core pooled4 median %.4fs over %zu runs\n",
                wall_s, p4_wall.size(), Median(p2_wall), p2_wall.size(),
                wall_serial, serial_wall.size(), Median(oocore_wall),
                oocore_wall.size());

    // Per-layer sums over the layered driver's levels.
    uint64_t blocks = 0;
    double induce_s = 0, cut_s = 0, blocks_s = 0, analyze_s = 0,
           filter_s = 0;
    for (const LevelRow& l : layers.levels) {
      induce_s += l.induce_s;
      cut_s += l.cut_s;
      blocks_s += l.blocks_s;
      filter_s += l.filter_s;
      blocks += l.blocks;
      analyze_s += l.analyze_s;
    }
    auto ns_per_clique = [&](StorageKind kind) {
      const auto it = layers.by_storage.find(kind);
      if (it == layers.by_storage.end() || it->second.cliques == 0) return 0.0;
      return it->second.seconds * 1e9 /
             static_cast<double>(it->second.cliques);
    };
    std::vector<std::string> absent;
    if (!base.reduce) absent.push_back("reduce");
    if (layers.filter_checked == 0) absent.push_back("decomp.filter");
    if (!oocore_leg) absent.push_back("sink/mem (no out-of-core leg)");
    std::printf("absent layers (reported as 0):");
    for (const std::string& a : absent) std::printf(" %s", a.c_str());
    std::printf("\n");

    metrics = {
        {"graph.load_s", setup_s, "s"},
        {"graph.load_bytes", load_bytes, "bytes"},
        {"graph.induce_s", induce_s, "s"},
        {"reduce.s", layers.reduce_s, "s"},
        {"reduce.vertices_removed",
         static_cast<double>(layers.reduction.vertices_removed), "count"},
        {"reduce.trivial_cliques",
         static_cast<double>(layers.reduction.trivial_cliques), "count"},
        {"decomp.levels", static_cast<double>(layers.levels.size()), "count"},
        {"decomp.blocks", static_cast<double>(blocks), "count"},
        {"decomp.block_nodes_mean",
         blocks > 0 ? static_cast<double>(layers.block_nodes) /
                          static_cast<double>(blocks)
                    : 0,
         "count"},
        {"decomp.cut_s", cut_s, "s"},
        {"decomp.blocks_s", blocks_s, "s"},
        {"decomp.analyze_s", analyze_s, "s"},
        {"decomp.ns_per_clique.lists",
         ns_per_clique(StorageKind::kAdjacencyList), "ns"},
        {"decomp.ns_per_clique.matrix", ns_per_clique(StorageKind::kMatrix),
         "ns"},
        {"decomp.ns_per_clique.bitset", ns_per_clique(StorageKind::kBitset),
         "ns"},
        {"decomp.filter_s", filter_s, "s"},
        {"decomp.filter_checked", static_cast<double>(layers.filter_checked),
         "count"},
        {"decomp.filter_kept_ratio",
         layers.filter_checked > 0
             ? static_cast<double>(layers.filter_kept) /
                   static_cast<double>(layers.filter_checked)
             : 0,
         "ratio"},
        {"mce.fallback_s", fallback_s, "s"},
        {"mce.fallback_cliques",
         static_cast<double>(fallback_fingerprint.count), "count"},
        {"mce.fallback_ns_per_clique",
         fallback_s * 1e9 / static_cast<double>(fallback_fingerprint.count),
         "ns"},
        {"exec.utilization", Median(util), "ratio"},
        {"exec.idle_s", Median(idle), "s"},
        {"exec.barrier_idle_s", Median(barrier), "s"},
        {"exec.overlap_s", Median(overlap), "s"},
        {"exec.block_splits", Median(splits), "count"},
        {"exec.wall_s.serial", wall_serial, "s"},
        {"exec.wall_s.pooled4", wall_s, "s"},
        {"exec.wall_s.pooled2", Median(p2_wall), "s"},
        {"exec.peak_mem_mb.pooled4", Median(p4_peak) / 1e6, "MB"},
        {"exec.speedup4", wall_s > 0 ? wall_serial / wall_s : 0, "ratio"},
        {"exec.overhead_s", wall_serial - layers.SummedLayerSeconds(), "s"},
        {"sink.spill_chunks", Median(spill_chunks), "count"},
        {"sink.spill_bytes", Median(spill_bytes), "bytes"},
        {"mem.admission_stalls", Median(stalls), "count"},
        {"mem.admission_stall_s", Median(stall_s), "s"},
        {"mem.peak_over_budget",
         budget > 0 ? Median(oocore_peak) / static_cast<double>(budget) : 0,
         "ratio"},
        {"mem.oocore_wall_s", Median(oocore_wall), "s"},
        {"ref.textbook_wall_s", Median(textbook_wall), "s"},
        {"obs.trace_overhead", trace_ratio.Ratio(), "ratio"},
        {"obs.profile_overhead", profile_ratio.Ratio(), "ratio"},
        {"obs.heartbeat_overhead", heartbeat_ratio.Ratio(), "ratio"},
        {"fail_frac",
         static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
    };
    std::printf("exec.speedup4 base: wall_s.serial %.4fs / pooled@4 %.4fs; "
                "exec.overhead_s base: wall_s.serial - layered layer sum "
                "%.4fs; obs ratios over %d pairs each (best-of-N on / off)\n",
                wall_serial, wall_s, layers.SummedLayerSeconds(),
                trace_ratio.pairs);
  }

  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mce::perfbench

int main(int argc, char** argv) { return mce::perfbench::Main(argc, argv); }
