// mce_cli — command-line front end for the library.
//
// Subcommands:
//   stats        graph metrics (nodes, edges, density, degeneracy, d*, ...)
//   enumerate    run the two-level pipeline and print/save maximal cliques
//   communities  k-clique communities (clique percolation)
//   generate     write a synthetic network (models or dataset stand-ins)
//   convert      translate between edge-list / triples / binary formats
//
// Examples:
//   mce_cli generate --model twitter1 --scale 0.1 --output t1.txt
//   mce_cli stats --input t1.txt
//   mce_cli enumerate --input t1.txt --ratio 0.5 --top 5 --output cliques.txt
//   mce_cli communities --input t1.txt --k 4
//   mce_cli convert --input t1.txt --output t1.bin --to binary

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "community/percolation.h"
#include "mce/clique_io.h"
#include "core/clique_analysis.h"
#include "core/max_clique_finder.h"
#include "core/report.h"
#include "core/verify.h"
#include "core/top_cliques.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "graph/connectivity.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/memory_budget.h"
#include "util/random.h"

namespace {

using mce::Graph;
using mce::NodeId;
using mce::Result;
using mce::Status;

/// How a flag's value is parsed. kInt values must lie in [min, max].
enum class FlagType { kString, kBool, kInt, kDouble };

struct FlagSpec {
  const char* name;
  FlagType type = FlagType::kString;
  int64_t min = std::numeric_limits<int>::min();
  int64_t max = std::numeric_limits<int>::max();
};

/// Parses the whole of `text` as a base-10 integer in [min, max].
bool ParseInt(const std::string& text, int64_t min, int64_t max,
              int64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && *out >= min && *out <= max;
}

/// Parses the whole of `text` as a finite floating-point number.
bool ParseDouble(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

/// Strict flag parser; accepts `--flag value`, `--flag=value`, and bare
/// boolean `--flag` (stored as "true" when the next token is another flag
/// or the end of the line), in any order and mixed freely. Validate()
/// rejects stray arguments, flags the subcommand does not declare and
/// values that do not parse as the declared type; the typed getters are
/// only called after it succeeded.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        stray_.emplace_back(argv[i]);
        continue;
      }
      const char* body = argv[i] + 2;
      if (const char* eq = std::strchr(body, '=')) {
        values_[std::string(body, eq)] = eq + 1;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "true";
      }
    }
  }

  /// Checks every argument against `specs`; returns "" or the first error.
  std::string Validate(const std::vector<FlagSpec>& specs) const {
    if (!stray_.empty()) return "unexpected argument '" + stray_[0] + "'";
    for (const auto& [key, value] : values_) {
      const FlagSpec* spec = Find(specs, key);
      if (spec == nullptr) return "unknown flag --" + key;
      int64_t i = 0;
      double d = 0;
      switch (spec->type) {
        case FlagType::kString:
          break;
        case FlagType::kBool:
          if (value != "true" && value != "false") {
            return "--" + key + " takes true or false, got '" + value + "'";
          }
          break;
        case FlagType::kInt:
          if (!ParseInt(value, spec->min, spec->max, &i)) {
            return "--" + key + " takes an integer in [" +
                   std::to_string(spec->min) + ", " +
                   std::to_string(spec->max) + "], got '" + value + "'";
          }
          break;
        case FlagType::kDouble:
          if (!ParseDouble(value, &d)) {
            return "--" + key + " takes a number, got '" + value + "'";
          }
          break;
      }
    }
    return "";
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool GetBool(const std::string& key) const { return Get(key, "") == "true"; }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double value = 0;
    MCE_CHECK(ParseDouble(it->second, &value));
    return value;
  }

  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    int64_t value = 0;
    MCE_CHECK(ParseInt(it->second, std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max(), &value));
    return static_cast<int>(value);
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  static const FlagSpec* Find(const std::vector<FlagSpec>& specs,
                              const std::string& key) {
    for (const FlagSpec& spec : specs) {
      if (key == spec.name) return &spec;
    }
    return nullptr;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> stray_;
};

/// Loads a graph in the format implied by --format or the file suffix.
/// --mmap-graph maps a .mcsr CSR binary read-only instead of loading it
/// onto the heap (the kernel pages adjacency in and out on demand).
Result<Graph> LoadGraph(const Flags& flags) {
  const std::string input = flags.Get("input", "");
  if (input.empty()) return Status::InvalidArgument("--input is required");
  std::string format = flags.Get("format", "");
  if (format.empty()) {
    if (input.size() > 5 && input.substr(input.size() - 5) == ".mcsr") {
      format = "mcsr";
    } else if (input.size() > 4 && input.substr(input.size() - 4) == ".bin") {
      format = "binary";
    } else if (input.size() > 8 &&
               input.substr(input.size() - 8) == ".triples") {
      format = "triples";
    } else {
      format = "edges";
    }
  }
  if (format == "mcsr") {
    if (flags.GetBool("mmap-graph")) return mce::OpenMmapGraph(input);
    return mce::ReadCsrBinary(input);
  }
  if (flags.GetBool("mmap-graph")) {
    return Status::InvalidArgument(
        "--mmap-graph requires a .mcsr input (convert with --to mcsr)");
  }
  if (format == "binary") return mce::ReadBinary(input);
  if (format == "triples") {
    MCE_ASSIGN_OR_RETURN(mce::LabeledGraph lg, mce::ReadTriples(input));
    return std::move(lg.graph);
  }
  if (format == "edges") return mce::ReadEdgeList(input);
  return Status::InvalidArgument("unknown --format " + format);
}

int CmdStats(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  mce::GraphMetrics m = mce::ComputeMetrics(*g);
  std::printf("nodes:        %llu\n",
              static_cast<unsigned long long>(m.num_nodes));
  std::printf("edges:        %llu\n",
              static_cast<unsigned long long>(m.num_edges));
  std::printf("density:      %.6f\n", m.density);
  std::printf("max degree:   %u\n", m.max_degree);
  std::printf("degeneracy:   %u\n", m.degeneracy);
  std::printf("d*:           %u\n", m.d_star);
  std::printf("components:   %u (largest %llu)\n",
              mce::ConnectedComponents(*g).count,
              static_cast<unsigned long long>(mce::LargestComponentSize(*g)));
  std::printf("deg in [1,20]: %.1f%%\n",
              100.0 * mce::DegreeRangeFraction(*g, 1, 20));
  return 0;
}

int CmdEnumerate(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  mce::MaxCliqueFinder::Options options;
  mce::decomp::FindMaxCliquesOptions& pipeline = options.pipeline;
  if (flags.Has("m")) {
    options.block_size = static_cast<uint32_t>(flags.GetInt("m", 0));
  } else {
    options.block_size_ratio = flags.GetDouble("ratio", 0.5);
  }
  // --threads N: analyze blocks on N local threads (0 = all hardware
  // threads). The clique output is identical to the serial run.
  int threads = flags.GetInt("threads", 1);
  // Oversubscription guard: far more workers than hardware threads only
  // adds context-switch overhead to a CPU-bound pipeline. Clamp at 4x, a
  // generous allowance for experimentation, and say so.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && threads > static_cast<int>(4 * hw)) {
    std::fprintf(stderr,
                 "warning: --threads %d exceeds 4x the %u hardware threads; "
                 "clamping to %u\n",
                 threads, hw, 4 * hw);
    threads = static_cast<int>(4 * hw);
  }
  pipeline.num_threads = static_cast<uint32_t>(threads);
  // --max-block-cost C: cost-guided BlockTask splitting on the pooled
  // executor; 0 keeps blocks whole (the clique output is identical either
  // way).
  pipeline.max_block_cost =
      flags.GetDouble("max-block-cost", pipeline.max_block_cost);
  // --reduce / --no-reduce: graph-reduction prepass (strip simplicial /
  // degree<=1 vertices, fold true twins) before the pipeline. The clique
  // output is identical either way; --no-reduce wins if both are given.
  if (flags.GetBool("reduce")) pipeline.reduce = true;
  if (flags.GetBool("no-reduce")) pipeline.reduce = false;
  // --executor serial|pooled|cluster: which execution engine runs the
  // pipeline. "cluster" routes through the simulated-cluster executor
  // (like --workers); the default picks serial or pooled by --threads.
  const std::string executor = flags.Get("executor", "");
  if (executor == "serial") {
    pipeline.executor = mce::decomp::ExecutorKind::kSerial;
  } else if (executor == "pooled") {
    pipeline.executor = mce::decomp::ExecutorKind::kPooled;
  } else if (executor == "cluster") {
    options.simulate_cluster = true;
  } else if (!executor.empty()) {
    std::fprintf(stderr,
                 "error: unknown --executor %s (serial|pooled|cluster)\n",
                 executor.c_str());
    return 1;
  }
  // --memory-budget B / --spill-threshold B / --spill-dir DIR: bound the
  // executor's tracked resident bytes; sizes accept K/M/G/T suffixes
  // (binary multiples). The clique output is identical with any budget.
  if (flags.Has("memory-budget")) {
    Result<uint64_t> bytes =
        mce::ParseByteSize(flags.Get("memory-budget", ""));
    if (!bytes.ok()) {
      std::fprintf(stderr, "error: --memory-budget: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    pipeline.memory_budget_bytes = *bytes;
  }
  if (flags.Has("spill-threshold")) {
    Result<uint64_t> bytes =
        mce::ParseByteSize(flags.Get("spill-threshold", ""));
    if (!bytes.ok()) {
      std::fprintf(stderr, "error: --spill-threshold: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    pipeline.spill_threshold_bytes = *bytes;
  }
  pipeline.spill_dir = flags.Get("spill-dir", "");
  // --perf-counters: per-task hardware-counter profiling. Every pipeline
  // task reads cycle/instruction/miss deltas via perf_event_open (or the
  // software task clock when the syscall is unavailable, e.g. in
  // containers); the attribution lands in the report ("profile" in
  // --json) and as args on --trace-out spans.
  if (flags.GetBool("perf-counters")) pipeline.profile = true;
  if (flags.Has("workers")) {
    options.simulate_cluster = true;
    options.cluster.num_workers = flags.GetInt("workers", 10);
    // The simulated machines get the same intra-worker parallelism.
    options.cluster.threads_per_worker = std::max(1, threads);
  }
  // --trace-out FILE / --metrics-out FILE: install the obs sinks for the
  // run (process-wide, so thread-pool idle spans and queue-depth samples
  // are captured too) and export after the run completes.
  const std::string trace_out = flags.Get("trace-out", "");
  const std::string metrics_out = flags.Get("metrics-out", "");
  mce::obs::TraceRecorder recorder;
  mce::obs::MetricsRegistry registry;
  if (!trace_out.empty()) mce::obs::TraceRecorder::Install(&recorder);
  if (!metrics_out.empty()) mce::obs::MetricsRegistry::Install(&registry);
  // --heartbeat-out FILE|- / --heartbeat-interval-ms N / --progress: live
  // NDJSON heartbeat stream and/or single-line TTY status, sampled from a
  // ProgressEstimator the executors feed as blocks register and retire.
  mce::obs::ProgressEstimator progress;
  mce::obs::TelemetryOptions telemetry;
  telemetry.out_path = flags.Get("heartbeat-out", "");
  telemetry.interval_ms = flags.GetInt("heartbeat-interval-ms", 500);
  telemetry.tty_progress = flags.GetBool("progress");
  const bool want_telemetry =
      !telemetry.out_path.empty() || telemetry.tty_progress;
  mce::obs::TelemetrySampler sampler(&progress, telemetry);
  if (want_telemetry) {
    pipeline.progress = &progress;
    if (!sampler.Start()) return 1;
  }
  mce::MaxCliqueFinder finder(options);
  Result<mce::FindResult> result = finder.Find(*g);
  sampler.Finish(result.ok());
  mce::obs::TraceRecorder::Install(nullptr);
  mce::obs::MetricsRegistry::Install(nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    Status st = recorder.WriteChromeTrace(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace to %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    const bool text = metrics_out.size() > 4 &&
                      metrics_out.substr(metrics_out.size() - 4) == ".txt";
    Status st = text ? registry.WriteText(metrics_out)
                     : registry.WriteJson(metrics_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
  }
  // --json true keeps stdout one JSON object: the human-readable lines
  // (--top, --output, --verify) go to stderr instead.
  const bool json = flags.GetBool("json");
  FILE* human = json ? stderr : stdout;
  if (json) {
    std::printf("%s\n", mce::RunReportJson(*result).c_str());
  } else {
    std::printf("%s\n", result->stats.ToString().c_str());
    if (result->cluster.has_value()) {
      std::printf("cluster: %d workers, makespan %.4fs, compute speedup "
                  "%.2fx, skew %.2f\n",
                  result->cluster->workers, result->cluster->makespan_seconds,
                  result->cluster->compute_speedup,
                  result->cluster->max_level_skew);
    }
  }
  const int top = flags.GetInt("top", 0);
  if (top > 0) {
    for (size_t idx : mce::LargestCliqueIndices(result->cliques, top)) {
      const mce::Clique& c = result->cliques.cliques()[idx];
      std::fprintf(human, "clique[%zu members]%s:", c.size(),
                   result->origin_level[idx] >= 1 ? " (hub-only)" : "");
      for (NodeId v : c) std::fprintf(human, " %u", v);
      std::fprintf(human, "\n");
    }
  }
  const std::string output = flags.Get("output", "");
  if (!output.empty()) {
    Status st = mce::WriteCliques(result->cliques, output);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(human, "wrote %zu cliques to %s\n", result->cliques.size(),
                 output.c_str());
  }
  if (flags.GetBool("verify")) {
    mce::VerificationReport report =
        mce::VerifyAgainstReference(*g, result->cliques);
    std::fprintf(human, "verification: %s\n", report.ToString().c_str());
    if (!report.ok()) return 1;
  }
  return 0;
}

int CmdTop(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  for (const mce::Clique& c : mce::TopKMaximalCliques(*g, k)) {
    std::printf("clique[%zu members]:", c.size());
    for (NodeId v : c) std::printf(" %u", v);
    std::printf("\n");
  }
  return 0;
}

int CmdCommunities(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  auto communities = mce::community::KCliqueCommunities(*g, k);
  std::printf("%zu k-clique communities (k=%u)\n", communities.size(), k);
  const int top = flags.GetInt("top", 10);
  for (size_t i = 0; i < communities.size() && i < static_cast<size_t>(top);
       ++i) {
    std::printf("  #%zu: %zu members, %zu cliques\n", i + 1,
                communities[i].members.size(),
                communities[i].clique_indices.size());
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const std::string model = flags.Get("model", "twitter1");
  const std::string output = flags.Get("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  const double scale = flags.GetDouble("scale", 0.1);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  Graph g;
  if (model == "twitter1" || model == "twitter2" || model == "twitter3" ||
      model == "facebook" || model == "google+") {
    for (auto config : mce::gen::AllDatasetConfigs(scale)) {
      if (config.name == model) {
        if (flags.Has("seed")) config.seed = seed;
        g = mce::gen::GenerateSocialNetwork(config);
      }
    }
  } else {
    mce::Rng rng(seed);
    const NodeId n = static_cast<NodeId>(flags.GetInt("nodes", 1000));
    if (model == "er") {
      g = mce::gen::ErdosRenyiGnp(n, flags.GetDouble("p", 0.01), &rng);
    } else if (model == "ba") {
      g = mce::gen::BarabasiAlbert(
          n, static_cast<uint32_t>(flags.GetInt("attach", 4)), &rng);
    } else if (model == "ws") {
      g = mce::gen::WattsStrogatz(
          n, static_cast<uint32_t>(flags.GetInt("kring", 6)),
          flags.GetDouble("beta", 0.2), &rng);
    } else {
      std::fprintf(stderr,
                   "error: unknown --model %s (try twitter1..3, facebook, "
                   "google+, er, ba, ws)\n",
                   model.c_str());
      return 1;
    }
  }
  Status st = mce::WriteEdgeList(g, output);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u nodes, %llu edges\n", output.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int CmdConvert(const Flags& flags) {
  Result<Graph> g = LoadGraph(flags);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  const std::string output = flags.Get("output", "");
  const std::string to = flags.Get("to", "edges");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  Status st = Status::OK();
  if (to == "edges") {
    st = mce::WriteEdgeList(*g, output);
  } else if (to == "binary") {
    st = mce::WriteBinary(*g, output);
  } else if (to == "mcsr") {
    st = mce::WriteCsrBinary(*g, output);
  } else if (to == "dot") {
    st = mce::WriteDot(*g, output);
  } else {
    std::fprintf(stderr, "error: unknown --to %s\n", to.c_str());
    return 1;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: mce_cli <stats|enumerate|top|communities|generate|convert> "
      "[--flag value ...]\n"
      "  Each subcommand accepts only the flags listed for it; numbers must\n"
      "  parse in full and booleans are true|false.\n"
      "  stats       --input G [--format edges|triples|binary|mcsr]\n"
      "  enumerate   --input G [--ratio R | --m M] [--workers N]\n"
      "              [--threads T]  (analysis threads; 0 = all cores)\n"
      "              [--executor serial|pooled|cluster]  (engine choice)\n"
      "              [--max-block-cost C]  (split blocks predicted above C\n"
      "                                     into kernel-range shards;\n"
      "                                     0 keeps BlockTasks whole)\n"
      "              [--reduce | --no-reduce]  (graph-reduction prepass:\n"
      "                                     strip simplicial vertices and\n"
      "                                     fold true twins; same cliques)\n"
      "              [--mmap-graph]        (map a .mcsr input read-only\n"
      "                                     instead of loading the heap)\n"
      "              [--memory-budget B]   (bound tracked resident bytes;\n"
      "                                     K/M/G/T suffixes accepted)\n"
      "              [--spill-threshold B] (per-level clique-buffer bytes\n"
      "                                     before spilling to disk)\n"
      "              [--spill-dir DIR]     (spill-file directory)\n"
      "              [--top K] [--output cliques.txt] [--json true]\n"
      "              [--verify true]  (re-enumerate and certify)\n"
      "              [--perf-counters true]  (per-task cycle/instruction/\n"
      "                                       miss attribution; software\n"
      "                                       clock when perf_event_open\n"
      "                                       is unavailable)\n"
      "              [--trace-out t.json]    (Chrome trace of the run)\n"
      "              [--metrics-out m.json]  (counters/histograms; .txt\n"
      "                                       for the text form)\n"
      "              [--heartbeat-out FILE|-]  (NDJSON progress heartbeats;\n"
      "                                       validate with trace_check\n"
      "                                       --heartbeat)\n"
      "              [--heartbeat-interval-ms N]  (sampling period; 500)\n"
      "              [--progress true]       (single-line live status on\n"
      "                                       stderr)\n"
      "  top         --input G [--k K]  (k largest maximal cliques)\n"
      "  communities --input G [--k K] [--top K]\n"
      "  generate    --model twitter1|...|er|ba|ws --output G\n"
      "              [--scale S | --nodes N --p P --attach A --kring K\n"
      "               --beta B] [--seed S]\n"
      "  convert     --input G --output G2 --to edges|binary|mcsr|dot\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  // Flags every graph-reading subcommand accepts (see LoadGraph).
  const std::vector<FlagSpec> input_flags = {
      {"input"}, {"format"}, {"mmap-graph", FlagType::kBool}};
  auto with_input = [&input_flags](std::vector<FlagSpec> specs) {
    specs.insert(specs.end(), input_flags.begin(), input_flags.end());
    return specs;
  };
  struct Command {
    const char* name;
    int (*run)(const Flags&);
    std::vector<FlagSpec> flags;
  };
  const Command commands[] = {
      {"stats", CmdStats, with_input({})},
      {"enumerate", CmdEnumerate,
       with_input({{"m", FlagType::kInt, 1},
                   {"ratio", FlagType::kDouble},
                   {"threads", FlagType::kInt, 0},
                   {"executor"},
                   {"max-block-cost", FlagType::kDouble},
                   {"reduce", FlagType::kBool},
                   {"no-reduce", FlagType::kBool},
                   {"memory-budget"},
                   {"spill-threshold"},
                   {"spill-dir"},
                   {"perf-counters", FlagType::kBool},
                   {"workers", FlagType::kInt, 1},
                   {"trace-out"},
                   {"metrics-out"},
                   {"heartbeat-out"},
                   {"heartbeat-interval-ms", FlagType::kInt, 1},
                   {"progress", FlagType::kBool},
                   {"json", FlagType::kBool},
                   {"top", FlagType::kInt, 0},
                   {"output"},
                   {"verify", FlagType::kBool}})},
      {"top", CmdTop, with_input({{"k", FlagType::kInt, 0}})},
      {"communities", CmdCommunities,
       with_input({{"k", FlagType::kInt, 2}, {"top", FlagType::kInt, 0}})},
      {"generate", CmdGenerate,
       {{"model"},
        {"output"},
        {"scale", FlagType::kDouble},
        {"seed", FlagType::kInt, 0},
        {"nodes", FlagType::kInt, 0},
        {"p", FlagType::kDouble},
        {"attach", FlagType::kInt, 1},
        {"kring", FlagType::kInt, 0},
        {"beta", FlagType::kDouble}}},
      {"convert", CmdConvert, with_input({{"output"}, {"to"}})},
  };
  const std::string name = argv[1];
  for (const Command& command : commands) {
    if (name != command.name) continue;
    const Flags flags(argc, argv, 2);
    const std::string error = flags.Validate(command.flags);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s: %s\n", command.name, error.c_str());
      Usage();
      return 2;
    }
    return command.run(flags);
  }
  Usage();
  return 2;
}
