// Cross-executor contract tests: every engine must produce byte-identical
// emission (cliques, order, observer stream) — DESIGN.md §7 — and the
// simulated cluster, fed by that observer stream, must not perturb it.

#include "exec/executor.h"

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distributed_mce.h"
#include "exec/task_graph.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "gen/generators.h"
#include "gen/social.h"
#include "gen/special.h"
#include "test_util.h"
#include "util/random.h"

namespace mce::exec {
namespace {

struct Captured {
  std::vector<std::pair<Clique, uint32_t>> emissions;
  std::vector<decomp::BlockTaskRecord> records;
  decomp::StreamingStats stats;
};

Captured RunWith(const Graph& g, decomp::FindMaxCliquesOptions options,
                 decomp::ExecutorKind kind, uint32_t threads) {
  options.executor = kind;
  options.num_threads = threads;
  Captured out;
  options.block_observer = [&out](const decomp::BlockTaskRecord& r) {
    out.records.push_back(r);
  };
  out.stats = decomp::FindMaxCliquesStreaming(
      g, options, [&out](std::span<const NodeId> c, uint32_t level) {
        out.emissions.emplace_back(Clique(c.begin(), c.end()), level);
      });
  return out;
}

void ExpectIdenticalRuns(const Captured& actual, const Captured& expected) {
  // Emission: same cliques, same order, same origin levels — byte-identical.
  EXPECT_EQ(actual.emissions, expected.emissions);
  // Observer stream: same records in the same order (timings aside).
  ASSERT_EQ(actual.records.size(), expected.records.size());
  for (size_t i = 0; i < actual.records.size(); ++i) {
    EXPECT_EQ(actual.records[i].level, expected.records[i].level);
    EXPECT_EQ(actual.records[i].nodes, expected.records[i].nodes);
    EXPECT_EQ(actual.records[i].edges, expected.records[i].edges);
    EXPECT_EQ(actual.records[i].bytes, expected.records[i].bytes);
    EXPECT_EQ(actual.records[i].cliques, expected.records[i].cliques);
    EXPECT_EQ(actual.records[i].used.algorithm,
              expected.records[i].used.algorithm);
    EXPECT_EQ(actual.records[i].used.storage, expected.records[i].used.storage);
  }
  EXPECT_EQ(actual.stats.used_fallback, expected.stats.used_fallback);
  EXPECT_EQ(actual.stats.cliques_emitted, expected.stats.cliques_emitted);
  ASSERT_EQ(actual.stats.levels.size(), expected.stats.levels.size());
  for (size_t l = 0; l < actual.stats.levels.size(); ++l) {
    EXPECT_EQ(actual.stats.levels[l].blocks, expected.stats.levels[l].blocks);
    EXPECT_EQ(actual.stats.levels[l].cliques, expected.stats.levels[l].cliques);
    EXPECT_EQ(actual.stats.levels[l].feasible,
              expected.stats.levels[l].feasible);
    EXPECT_EQ(actual.stats.levels[l].hubs, expected.stats.levels[l].hubs);
  }
}

std::vector<Graph> Corpus() {
  std::vector<Graph> corpus;
  Rng rng(101);
  corpus.push_back(gen::ErdosRenyiGnp(30, 0.15, &rng));
  corpus.push_back(gen::ErdosRenyiGnp(30, 0.4, &rng));
  corpus.push_back(gen::BarabasiAlbert(50, 3, &rng));
  corpus.push_back(gen::WattsStrogatz(40, 4, 0.2, &rng));
  corpus.push_back(gen::OverlayRandomCliques(gen::ErdosRenyiGnp(40, 0.05, &rng),
                                             4, 4, 7, false, &rng));
  corpus.push_back(mce::test::StarGraph(20));
  corpus.push_back(gen::MoonMoser(3));
  corpus.push_back(gen::Complete(10));
  return corpus;
}

TEST(ExecutorIdentityTest, PooledMatchesSerialAcrossCorpusAndThreads) {
  const std::vector<Graph> corpus = Corpus();
  for (size_t gi = 0; gi < corpus.size(); ++gi) {
    const Graph& g = corpus[gi];
    for (uint32_t m : {3u, 8u, 20u}) {
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = m;
      const Captured serial =
          RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "graph " << gi << " m " << m
                                        << " threads " << threads);
        ExpectIdenticalRuns(
            RunWith(g, options, decomp::ExecutorKind::kPooled, threads),
            serial);
      }
    }
  }
}

// The storage x algorithm axis (options.fixed): per-worker workspace reuse
// may not perturb emission order or content for any backend combination.
TEST(ExecutorIdentityTest, AllCombosMatchSerialAcrossThreads) {
  std::vector<Graph> graphs = Corpus();
  Rng rng(37);
  graphs.push_back(gen::BarabasiAlbert(90, 3, &rng));
  for (Algorithm algorithm :
       {Algorithm::kBKPivot, Algorithm::kTomita, Algorithm::kXPivot}) {
    for (StorageKind storage :
         {StorageKind::kAdjacencyList, StorageKind::kMatrix,
          StorageKind::kBitset}) {
      for (size_t gi = 0; gi < graphs.size(); ++gi) {
        decomp::FindMaxCliquesOptions options;
        options.max_block_size = 18;
        options.fixed = {algorithm, storage};
        const Captured serial =
            RunWith(graphs[gi], options, decomp::ExecutorKind::kSerial, 1);
        for (uint32_t threads : {1u, 2u, 4u, 8u}) {
          SCOPED_TRACE(testing::Message()
                       << ComboName(storage, algorithm) << " graph " << gi
                       << " threads " << threads);
          ExpectIdenticalRuns(RunWith(graphs[gi], options,
                                      decomp::ExecutorKind::kPooled, threads),
                              serial);
        }
      }
    }
  }
}

TEST(ExecutorIdentityTest, SocialStandInMatchesAcrossExecutors) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 40;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_GT(serial.stats.cliques_emitted, 0u);
  for (uint32_t threads : {2u, 8u}) {
    ExpectIdenticalRuns(
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads), serial);
  }
}

TEST(ExecutorIdentityTest, BatchResultsMatchAcrossExecutors) {
  Rng rng(103);
  Graph g = gen::BarabasiAlbert(60, 3, &rng);
  decomp::FindMaxCliquesOptions serial_options;
  serial_options.max_block_size = 12;
  serial_options.executor = decomp::ExecutorKind::kSerial;
  decomp::FindMaxCliquesOptions pooled_options = serial_options;
  pooled_options.executor = decomp::ExecutorKind::kPooled;
  pooled_options.num_threads = 4;
  decomp::FindMaxCliquesResult serial =
      decomp::FindMaxCliques(g, serial_options);
  decomp::FindMaxCliquesResult pooled =
      decomp::FindMaxCliques(g, pooled_options);
  mce::test::ExpectSameCliques(pooled.cliques, serial.cliques);
  EXPECT_EQ(pooled.origin_level, serial.origin_level);
  mce::test::ExpectMatchesNaive(g, serial.cliques);
}

TEST(ExecutorObserverTest, RecordStreamIsIdenticalAcrossExecutors) {
  Rng rng(105);
  Graph g = gen::BarabasiAlbert(70, 3, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  const Captured pooled = RunWith(g, options, decomp::ExecutorKind::kPooled, 4);
  const std::vector<decomp::BlockTaskRecord>& a = serial.records;
  const std::vector<decomp::BlockTaskRecord>& b = pooled.records;
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  uint64_t expected_index = 0;
  uint32_t level = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].edges, b[i].edges);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].cliques, b[i].cliques);
    // Both engines score the block with the same cost model.
    EXPECT_GT(a[i].estimated_cost, 0.0);
    EXPECT_DOUBLE_EQ(a[i].estimated_cost, b[i].estimated_cost);
    // Records arrive in block order within each level, levels in order.
    if (a[i].level != level) {
      EXPECT_EQ(a[i].level, level + 1);
      level = a[i].level;
      expected_index = 0;
    }
    EXPECT_EQ(a[i].index, expected_index);
    ++expected_index;
  }
}

TEST(ExecutorStatsTest, SerialReportsOneThreadAndNoOverlap) {
  Rng rng(107);
  Graph g = gen::BarabasiAlbert(60, 3, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  const Captured run = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  ASSERT_FALSE(run.stats.levels.empty());
  for (const decomp::LevelStats& level : run.stats.levels) {
    EXPECT_EQ(level.analyze_threads, 1u);
    EXPECT_DOUBLE_EQ(level.overlap_seconds, 0.0);
    EXPECT_GE(level.idle_seconds, 0.0);
    EXPECT_DOUBLE_EQ(level.busiest_worker_seconds, level.block_seconds);
  }
}

TEST(ExecutorStatsTest, PooledReportsThreadsAndNonNegativeOverlap) {
  Rng rng(109);
  Graph g = gen::BarabasiAlbert(80, 3, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  const Captured run = RunWith(g, options, decomp::ExecutorKind::kPooled, 4);
  ASSERT_FALSE(run.stats.levels.empty());
  // The first level has no predecessor to overlap with; deeper levels may
  // overlap, but the measurement is wall-clock dependent, so only sign and
  // bounds are asserted.
  EXPECT_DOUBLE_EQ(run.stats.levels[0].overlap_seconds, 0.0);
  for (const decomp::LevelStats& level : run.stats.levels) {
    if (level.blocks > 0 && !run.stats.used_fallback) {
      EXPECT_EQ(level.analyze_threads, 4u);
    }
    EXPECT_GE(level.overlap_seconds, 0.0);
    EXPECT_LE(level.overlap_seconds, level.decompose_seconds + 1e-9);
    EXPECT_GE(level.idle_seconds, 0.0);
  }
}

// Satellite: a level that produces cliques but emits none of them (all
// filtered by Lemma 1) must still report correct stats and not derail the
// chunked filter. StarGraph(20): the center is the only hub, level 1 finds
// {center}, which is not maximal in G.
TEST(ExecutorStatsTest, LevelWithZeroEmittedCliquesReportsCorrectStats) {
  const Graph g = mce::test::StarGraph(20);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 10;
  for (decomp::ExecutorKind kind :
       {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
    const Captured run = RunWith(g, options, kind, 4);
    EXPECT_FALSE(run.stats.used_fallback);
    ASSERT_EQ(run.stats.levels.size(), 2u);
    // 19 edges = 19 maximal cliques, all from level 0.
    EXPECT_EQ(run.stats.cliques_emitted, 19u);
    EXPECT_EQ(run.stats.levels[0].cliques, 19u);
    // Level 1 produced one clique pre-filter ({center}) and emitted none.
    EXPECT_EQ(run.stats.levels[1].blocks, 1u);
    EXPECT_EQ(run.stats.levels[1].cliques, 1u);
    for (const auto& [clique, level] : run.emissions) {
      EXPECT_EQ(level, 0u);
      EXPECT_EQ(clique.size(), 2u);
    }
  }
}

TEST(ExecutorStatsTest, EmptyGraphYieldsOneEmptyLevel) {
  const Graph g = mce::test::PathGraph(0);
  for (decomp::ExecutorKind kind :
       {decomp::ExecutorKind::kSerial, decomp::ExecutorKind::kPooled}) {
    const Captured run = RunWith(g, {}, kind, 4);
    EXPECT_TRUE(run.emissions.empty());
    EXPECT_FALSE(run.stats.used_fallback);
    ASSERT_EQ(run.stats.levels.size(), 1u);
    EXPECT_EQ(run.stats.levels[0].blocks, 0u);
    EXPECT_EQ(run.stats.levels[0].cliques, 0u);
  }
}

// Satellite: the m-core fallback under num_threads > 1 stays an indivisible
// serial task with byte-identical emission.
TEST(ExecutorFallbackTest, FallbackIsByteIdenticalAcrossThreadCounts) {
  const Graph g = gen::Complete(12);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 6;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_TRUE(serial.stats.used_fallback);
  ASSERT_EQ(serial.emissions.size(), 1u);
  for (uint32_t threads : {2u, 8u}) {
    const Captured pooled =
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalRuns(pooled, serial);
    // The fallback runs as one serial task regardless of the pool size.
    EXPECT_EQ(pooled.stats.levels.back().analyze_threads, 1u);
  }
}

/// The batch result of a run in Captured form: cliques in sorted order
/// with their origin levels, the level stats, and the observer records.
Captured FromResult(const decomp::FindMaxCliquesResult& result,
                    std::vector<decomp::BlockTaskRecord> records) {
  Captured out;
  for (size_t i = 0; i < result.cliques.size(); ++i) {
    out.emissions.emplace_back(result.cliques.cliques()[i],
                               result.origin_level[i]);
  }
  out.records = std::move(records);
  out.stats.levels = result.levels;
  out.stats.used_fallback = result.used_fallback;
  out.stats.cliques_emitted = result.cliques.size();
  return out;
}

TEST(DistributedMceObserverTest, MatchesPlainEngineAndSchedulesRecordStream) {
  Rng rng(111);
  Graph g = gen::BarabasiAlbert(80, 3, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  options.executor = decomp::ExecutorKind::kSerial;

  std::vector<decomp::BlockTaskRecord> plain_records;
  options.block_observer = [&plain_records](const decomp::BlockTaskRecord& r) {
    plain_records.push_back(r);
  };
  const decomp::FindMaxCliquesResult plain_result =
      decomp::FindMaxCliques(g, options);
  const Captured plain = FromResult(plain_result, std::move(plain_records));

  std::vector<decomp::BlockTaskRecord> user_records;
  options.block_observer = [&user_records](const decomp::BlockTaskRecord& r) {
    user_records.push_back(r);
  };
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  dist::ClusterConfig config;
  config.num_workers = 4;
  const dist::DistributedResult dist =
      dist::RunDistributedMce(g, options, config);

  // The simulation must not perturb the algorithmic output at all, and the
  // caller's observer still sees every record even though the simulator
  // chains its own collector in front of it.
  ExpectIdenticalRuns(FromResult(dist.algorithm, std::move(user_records)),
                      plain);

  // One simulation per level, scheduling exactly the level's block tasks.
  ASSERT_EQ(dist.levels.size(), dist.algorithm.levels.size());
  uint64_t total_blocks = 0;
  for (size_t l = 0; l < dist.levels.size(); ++l) {
    const dist::DistributedLevel& sim = dist.levels[l];
    uint64_t tasks = 0;
    for (const dist::WorkerTimeline& w : sim.simulation.workers) {
      tasks += w.tasks;
    }
    EXPECT_EQ(tasks, dist.algorithm.levels[l].blocks);
    EXPECT_GE(sim.decompose_seconds, 0.0);
    EXPECT_EQ(sim.simulation.assignment.size(),
              dist.algorithm.levels[l].blocks);
    total_blocks += dist.algorithm.levels[l].blocks;
  }
  ASSERT_GT(total_blocks, 0u);

  // The placement is replayed as one kSimBlock span per block task, on the
  // synthetic "mce cluster sim" lanes.
  uint64_t sim_spans = 0;
  for (const obs::TraceEvent& e : recorder.Events()) {
    if (e.kind != obs::SpanKind::kSimBlock) continue;
    ++sim_spans;
    EXPECT_EQ(e.lane_pid, 1);
    EXPECT_GE(e.lane_tid, 0);
    EXPECT_GE(e.end_us, e.begin_us);
  }
  EXPECT_EQ(sim_spans, total_blocks);
}

TEST(DistributedMceObserverTest, BlockRecordsMatchAcrossSerialAndPooled) {
  // The observer coverage contract: simulating the cluster over either
  // engine must leave the BlockTaskRecord stream (and the result)
  // byte-identical to a plain serial run on the same input.
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.01));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 25;
  options.executor = decomp::ExecutorKind::kSerial;
  std::vector<decomp::BlockTaskRecord> plain_records;
  options.block_observer = [&plain_records](const decomp::BlockTaskRecord& r) {
    plain_records.push_back(r);
  };
  const decomp::FindMaxCliquesResult plain_result =
      decomp::FindMaxCliques(g, options);
  const Captured plain_serial =
      FromResult(plain_result, std::move(plain_records));
  EXPECT_GT(plain_serial.records.size(), 0u);

  dist::ClusterConfig config;
  config.num_workers = 3;
  auto run_simulated = [&](decomp::ExecutorKind kind, uint32_t threads) {
    decomp::FindMaxCliquesOptions simulated = options;
    simulated.executor = kind;
    simulated.num_threads = threads;
    std::vector<decomp::BlockTaskRecord> records;
    simulated.block_observer = [&records](const decomp::BlockTaskRecord& r) {
      records.push_back(r);
    };
    const dist::DistributedResult dist =
        dist::RunDistributedMce(g, simulated, config);
    return FromResult(dist.algorithm, std::move(records));
  };

  ExpectIdenticalRuns(run_simulated(decomp::ExecutorKind::kSerial, 1),
                      plain_serial);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "pooled engine, threads " << threads);
    ExpectIdenticalRuns(run_simulated(decomp::ExecutorKind::kPooled, threads),
                        plain_serial);
  }
}

TEST(ResolveThreadCountTest, HonorsExplicitRequests) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

// Tentpole: cost-guided BlockTask splitting. A max_block_cost of 1 forces
// every multi-kernel block into per-kernel shards, the harshest shard
// schedule possible — the emission, observer stream, and per-level stats
// must still be byte-identical to the serial run.
TEST(ShardIdentityTest, ForcedSplitMatchesSerialAcrossCorpusAndThreads) {
  const std::vector<Graph> corpus = Corpus();
  uint64_t total_splits = 0;
  for (size_t gi = 0; gi < corpus.size(); ++gi) {
    const Graph& g = corpus[gi];
    for (uint32_t m : {3u, 8u, 20u}) {
      decomp::FindMaxCliquesOptions options;
      options.max_block_size = m;
      options.max_block_cost = 1.0;  // shatter everything
      const Captured serial =
          RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "graph " << gi << " m " << m
                                        << " threads " << threads);
        const Captured pooled =
            RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
        ExpectIdenticalRuns(pooled, serial);
        for (const decomp::LevelStats& level : pooled.stats.levels) {
          total_splits += level.block_splits;
        }
      }
    }
  }
  // The sweep must actually exercise the shard path: every multi-kernel
  // block crosses the forced threshold on the multi-threaded runs.
  EXPECT_GT(total_splits, 0u);
}

TEST(ShardIdentityTest, SocialStandInForcedSplitMatchesSerial) {
  const Graph g = gen::GenerateSocialNetwork(gen::FacebookConfig(0.02));
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 40;
  options.max_block_cost = 50.0;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_GT(serial.stats.cliques_emitted, 0u);
  for (uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ExpectIdenticalRuns(
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads), serial);
  }
}

// The degenerate cases: a threshold nothing crosses (every block is a
// single shard) and splitting switched off with max_block_cost = 0 must
// both behave exactly like the pre-shard executor.
TEST(ShardIdentityTest, SingleShardAndNoSplitAreByteIdentical) {
  Rng rng(113);
  const Graph g = gen::BarabasiAlbert(70, 4, &rng);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 12;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);

  decomp::FindMaxCliquesOptions huge = options;
  huge.max_block_cost = 1e18;  // nothing splits
  decomp::FindMaxCliquesOptions off = options;
  off.max_block_cost = 0;  // --max-block-cost 0: never split
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const Captured unsplit =
        RunWith(g, huge, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalRuns(unsplit, serial);
    const Captured disabled =
        RunWith(g, off, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalRuns(disabled, serial);
    for (const decomp::LevelStats& level : unsplit.stats.levels) {
      EXPECT_EQ(level.block_splits, 0u);
    }
    for (const decomp::LevelStats& level : disabled.stats.levels) {
      EXPECT_EQ(level.block_splits, 0u);
    }
  }
}

// The m-core fallback bypasses block decomposition entirely, so the split
// threshold must not touch it.
TEST(ShardIdentityTest, FallbackIgnoresSplitThreshold) {
  const Graph g = gen::Complete(12);
  decomp::FindMaxCliquesOptions options;
  options.max_block_size = 6;
  options.max_block_cost = 1.0;
  const Captured serial = RunWith(g, options, decomp::ExecutorKind::kSerial, 1);
  EXPECT_TRUE(serial.stats.used_fallback);
  for (uint32_t threads : {2u, 8u}) {
    const Captured pooled =
        RunWith(g, options, decomp::ExecutorKind::kPooled, threads);
    ExpectIdenticalRuns(pooled, serial);
    for (const decomp::LevelStats& level : pooled.stats.levels) {
      EXPECT_EQ(level.block_splits, 0u);
    }
  }
}

TEST(CostOrderedQueueTest, DispatchesHighestCostFirstWithFifoTies) {
  CostOrderedQueue queue;
  std::vector<int> ran;
  queue.Push(1.0, [&ran] { ran.push_back(1); });
  queue.Push(5.0, [&ran] { ran.push_back(5); });
  queue.Push(3.0, [&ran] { ran.push_back(3); });
  queue.Push(5.0, [&ran] { ran.push_back(50); });  // tie: after the first 5
  EXPECT_EQ(queue.Size(), 4u);
  for (int i = 0; i < 4; ++i) queue.RunNext();
  EXPECT_EQ(ran, (std::vector<int>{5, 50, 3, 1}));
  EXPECT_EQ(queue.Size(), 0u);
  queue.RunNext();  // empty pop is a tolerated no-op
}

// Satellite: largest-predicted-first scheduling. A level whose giant task
// is emitted last must still finish within a small factor of its critical
// path — with FIFO dispatch the giant starts only after the small tasks
// drain, pushing the makespan toward (small + giant); with cost-ordered
// dispatch the giant starts immediately and the smalls fill the other
// workers.
TEST(CostOrderedQueueTest, GiantTaskEmittedLastFinishesNearCriticalPath) {
  constexpr int kWorkers = 4;
  constexpr auto kGiant = std::chrono::milliseconds(240);
  constexpr auto kSmall = std::chrono::milliseconds(20);
  constexpr int kSmallCount = 12;
  // Critical path = the giant task; the smalls pack into the remaining
  // three workers well inside its window.
  ThreadPool pool(kWorkers);
  CostOrderedQueue queue;
  // Emission order: all smalls first, the giant last — the adversarial
  // order that defeats FIFO.
  for (int i = 0; i < kSmallCount; ++i) {
    queue.Push(1.0, [kSmall] { std::this_thread::sleep_for(kSmall); });
    pool.Submit([&queue] { queue.RunNext(); });
  }
  queue.Push(1000.0, [kGiant] { std::this_thread::sleep_for(kGiant); });
  pool.Submit([&queue] { queue.RunNext(); });
  const auto begin = std::chrono::steady_clock::now();
  pool.Wait();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  // FIFO would need ceil(12/4)*20ms before the giant even starts
  // (makespan >= 300ms); cost-ordered dispatch keeps the level within
  // 1.2x the 240ms critical path. The bound leaves slack for scheduler
  // jitter but stays below the FIFO floor.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            kGiant * 12 / 10)
      << "giant-last level exceeded 1.2x its critical path";
}

}  // namespace
}  // namespace mce::exec
