#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include <utility>

#include "gen/generators.h"
#include "gen/special.h"
#include "util/random.h"
#include "util/timer.h"

namespace mce::bench {

std::vector<MceOptions> AllCombos() {
  std::vector<MceOptions> combos;
  for (Algorithm a : {Algorithm::kBKPivot, Algorithm::kTomita,
                      Algorithm::kEppstein, Algorithm::kXPivot}) {
    for (StorageKind s : {StorageKind::kAdjacencyList, StorageKind::kMatrix,
                          StorageKind::kBitset}) {
      combos.push_back({a, s});
    }
  }
  return combos;
}

std::vector<NamedGraph> BuildGraphCollection(uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedGraph> graphs;
  auto add = [&graphs](std::string name, Graph g) {
    graphs.push_back({std::move(name), std::move(g)});
  };

  // Erdos-Renyi: sparse to dense (dense only at small n, where MCE output
  // stays tractable — the paper's 0.89-density graph is its 50-node one).
  const std::pair<NodeId, double> er_cases[] = {
      {50, 0.89},    {60, 0.4},    {80, 0.7},    {150, 0.5},  {100, 0.3},
      {60, 0.05},    {60, 0.15},   {400, 0.002}, {400, 0.01}, {400, 0.05},
      {400, 0.15},   {1500, 0.002}, {1500, 0.01}, {1500, 0.03},
      {2500, 0.004},
  };
  int idx = 0;
  for (const auto& [n, p] : er_cases) {
    add("er_" + std::to_string(idx++), gen::ErdosRenyiGnp(n, p, &rng));
  }
  // Fixed-edge-count variants (3 graphs).
  add("gnm_0", gen::ErdosRenyiGnm(500, 3000, &rng));
  add("gnm_1", gen::ErdosRenyiGnm(1000, 10000, &rng));
  add("gnm_2", gen::ErdosRenyiGnm(800, 2000, &rng));
  // Barabasi-Albert: scale-free, varying attachment (9 graphs).
  idx = 0;
  for (NodeId n : {200u, 1000u, 3000u}) {
    for (uint32_t attach : {2u, 6u, 16u}) {
      add("ba_" + std::to_string(idx++), gen::BarabasiAlbert(n, attach, &rng));
    }
  }
  // Watts-Strogatz: small world (9 graphs).
  idx = 0;
  for (NodeId n : {200u, 1000u, 2500u}) {
    for (double beta : {0.05, 0.3, 0.8}) {
      add("ws_" + std::to_string(idx++), gen::WattsStrogatz(n, 8, beta, &rng));
    }
  }
  // Planted-clique overlays on scale-free backbones: the dense-pocket
  // shape blocks actually have (8 graphs).
  idx = 0;
  for (NodeId n : {300u, 900u}) {
    for (uint32_t cliques : {4u, 16u}) {
      Graph base = gen::BarabasiAlbert(n, 3, &rng);
      const bool bias = idx % 2 == 0;
      add("pc_" + std::to_string(idx++),
          gen::OverlayRandomCliques(base, cliques, 6, 18, bias, &rng));
    }
    for (uint32_t cliques : {8u, 24u}) {
      Graph base = gen::ErdosRenyiGnp(n, 0.02, &rng);
      add("pc_" + std::to_string(idx++),
          gen::OverlayRandomCliques(base, cliques, 5, 14, false, &rng));
    }
  }
  // Large sparse graphs, past the dense-structure memory budget: the
  // regime where the paper's Lists column wins (3 graphs).
  add("big_ba", gen::BarabasiAlbert(15000, 3, &rng));
  add("big_ws", gen::WattsStrogatz(15000, 6, 0.1, &rng));
  add("big_er", gen::ErdosRenyiGnp(15000, 0.0006, &rng));
  // Structured extremes (6 graphs).
  add("complete_120", gen::Complete(120));
  add("moon_moser_5", gen::MoonMoser(5));
  add("hn_m6", gen::HnWorstCase(800, 6));
  add("social_mini_1",
      gen::GenerateSocialNetwork(gen::Twitter1Config(0.05)));
  add("social_mini_2",
      gen::GenerateSocialNetwork(gen::GooglePlusConfig(0.04)));
  add("social_mini_3",
      gen::GenerateSocialNetwork(gen::FacebookConfig(0.04)));
  return graphs;  // 53 graphs
}

double DatasetScale() {
  if (const char* env = std::getenv("MCE_DATASET_SCALE")) {
    double scale = std::atof(env);
    if (scale > 0) return scale;
  }
  return 0.25;
}

int BenchReps() {
  if (const char* env = std::getenv("MCE_BENCH_REPS")) {
    int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 1;
}

std::vector<NamedGraph> Datasets() {
  std::vector<NamedGraph> out;
  for (const gen::SocialNetworkConfig& config :
       gen::AllDatasetConfigs(DatasetScale())) {
    out.push_back({config.name, gen::GenerateSocialNetwork(config)});
  }
  return out;
}

double TimeEnumeration(const Graph& g, const MceOptions& options,
                       uint64_t* clique_count) {
  uint64_t count = 0;
  Timer timer;
  EnumerateMaximalCliques(g, options,
                          [&count](std::span<const NodeId>) { ++count; });
  double seconds = timer.ElapsedSeconds();
  if (clique_count != nullptr) *clique_count = count;
  return seconds;
}

bool ComboFits(const Graph& g, StorageKind storage, uint64_t budget_bytes) {
  return EstimateStorageBytes(g.num_nodes(), g.num_edges(), storage) <=
         budget_bytes;
}

ComboMeasurement MeasureAllCombos(const Graph& g) {
  const std::vector<MceOptions> combos = AllCombos();
  ComboMeasurement m;
  m.seconds.assign(combos.size(), std::numeric_limits<double>::infinity());
  const int reps = BenchReps();
  for (size_t i = 0; i < combos.size(); ++i) {
    if (!ComboFits(g, combos[i].storage)) continue;
    double total = 0;
    for (int r = 0; r < reps; ++r) {
      total += TimeEnumeration(g, combos[i], nullptr);
    }
    m.seconds[i] = total / reps;
    if (m.best < 0 || m.seconds[i] < m.seconds[m.best]) {
      m.best = static_cast<int>(i);
    }
  }
  return m;
}

FindResult RunPipeline(const Graph& g, double ratio, bool simulate_cluster,
                       int workers, uint32_t num_threads) {
  MaxCliqueFinder::Options options;
  options.block_size_ratio = ratio;
  options.simulate_cluster = simulate_cluster;
  options.cluster.num_workers = workers;
  options.pipeline.num_threads = num_threads;
  MaxCliqueFinder finder(options);
  Result<FindResult> result = finder.Find(g);
  MCE_CHECK(result.ok());
  return std::move(result).value();
}

TrainedSetup TrainOnCollection(uint64_t seed) {
  TrainedSetup setup;
  setup.collection = BuildGraphCollection(seed);
  setup.measurements.reserve(setup.collection.size());
  setup.features.reserve(setup.collection.size());
  for (const NamedGraph& g : setup.collection) {
    setup.measurements.push_back(MeasureAllCombos(g.graph));
    setup.features.push_back(decision::ComputeFeatures(g.graph));
  }
  // Deterministic 80/20 split.
  Rng rng(seed ^ 0xabcdef);
  std::vector<size_t> order(setup.collection.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  const size_t train_count = order.size() * 4 / 5;
  for (size_t i = 0; i < order.size(); ++i) {
    (i < train_count ? setup.train_idx : setup.test_idx).push_back(order[i]);
  }
  std::vector<decision::TrainingExample> examples;
  for (size_t i : setup.train_idx) {
    if (setup.measurements[i].best < 0) continue;
    decision::TrainingExample e;
    e.features = setup.features[i];
    e.label = setup.measurements[i].best;
    examples.push_back(e);
  }
  decision::TrainerOptions options;
  options.max_depth = 3;  // the paper's tree has depth 3
  options.min_samples_leaf = 3;
  setup.tree = decision::TrainDecisionTree(examples, AllCombos(), options);
  return setup;
}

void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRule() {
  std::printf("%s\n", std::string(72, '-').c_str());
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

}  // namespace mce::bench
