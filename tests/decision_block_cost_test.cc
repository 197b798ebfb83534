#include "decision/block_cost.h"

#include <cmath>

#include <gtest/gtest.h>

#include "decision/features.h"
#include "gen/generators.h"
#include "util/random.h"

namespace mce::decision {
namespace {

BlockFeatures Features(double nodes, double edges, double density,
                       double degeneracy) {
  BlockFeatures f;
  f.num_nodes = nodes;
  f.num_edges = edges;
  f.density = density;
  f.degeneracy = degeneracy;
  return f;
}

TEST(EstimateBlockCostTest, MonotoneInSizeDensityAndDegeneracy) {
  const double base = EstimateBlockCost(Features(20, 40, 0.2, 4));
  EXPECT_GE(EstimateBlockCost(Features(40, 40, 0.2, 4)), base);
  EXPECT_GE(EstimateBlockCost(Features(20, 80, 0.2, 4)), base);
  EXPECT_GE(EstimateBlockCost(Features(20, 40, 0.4, 4)), base);
  EXPECT_GT(EstimateBlockCost(Features(20, 40, 0.2, 8)), base);
}

TEST(EstimateBlockCostTest, AlwaysAtLeastOneAndFinite) {
  EXPECT_GE(EstimateBlockCost(Features(0, 0, 0, 0)), 1.0);
  // The exponent clamp keeps even a block-bound-sized degeneracy finite
  // (3^(2000/3) would overflow the double range).
  const double huge = EstimateBlockCost(Features(5000, 1e6, 1.0, 2000));
  EXPECT_TRUE(std::isfinite(huge));
  EXPECT_GE(huge, 1.0);
}

TEST(EstimateBlockCostTest, DenseBlockOutranksSparseBlockOfSameSize) {
  // The LPT dispatch order only needs the ranking: a near-clique must
  // score far above a near-tree on the same node count.
  const double dense = EstimateBlockCost(Features(30, 400, 0.92, 25));
  const double sparse = EstimateBlockCost(Features(30, 32, 0.07, 2));
  EXPECT_GT(dense, 10 * sparse);
}

TEST(EstimateBlockCostTest, GraphOverloadMatchesExplicitFeatures) {
  // The Graph overload skips d* (the model never reads it), so it must
  // agree exactly with scoring the computed features.
  Rng rng(7);
  const Graph g = gen::BarabasiAlbert(60, 3, &rng);
  EXPECT_DOUBLE_EQ(EstimateBlockCost(g),
                   EstimateBlockCost(ComputeFeatures(g)));
}

TEST(EstimateBlockCostTest, ExponentClampBoundary) {
  // Below the d = 120 clamp each +3 of degeneracy triples the tree term;
  // at the boundary the exponent freezes and only the polynomial span and
  // degeneracy factors keep moving, so the step ratio collapses while the
  // ordering stays monotone.
  const double below = EstimateBlockCost(Features(5000, 1e6, 1.0, 117));
  const double at = EstimateBlockCost(Features(5000, 1e6, 1.0, 120));
  const double above = EstimateBlockCost(Features(5000, 1e6, 1.0, 123));
  EXPECT_GT(at / below, 2.0);  // unclamped +3 step: ~3x
  EXPECT_LT(above / at, 1.1);  // clamped +3 step: polynomial factors only
  EXPECT_GE(above, at);        // never loses monotonicity at the clamp
}

TEST(PlanShardCountTest, SplitsProportionallyToCostOverThreshold) {
  EXPECT_EQ(PlanShardCount(100.0, 1000.0, 16), 1u);   // under threshold
  EXPECT_EQ(PlanShardCount(2500.0, 1000.0, 16), 3u);  // ceil(2.5)
  EXPECT_EQ(PlanShardCount(999.0, 1000.0, 16), 1u);
  EXPECT_EQ(PlanShardCount(1001.0, 1000.0, 16), 2u);
}

TEST(PlanShardCountTest, ClampsToKernelCount) {
  EXPECT_EQ(PlanShardCount(1e9, 1000.0, 4), 4u);
  // One kernel cannot be subdivided; neither can zero.
  EXPECT_EQ(PlanShardCount(1e9, 1000.0, 1), 1u);
  EXPECT_EQ(PlanShardCount(1e9, 1000.0, 0), 1u);
}

TEST(PlanShardCountTest, ExactThresholdBoundaries) {
  // cost == max_cost sits on the unsplit side of the comparison; the
  // first representable cost above it crosses to two shards.
  EXPECT_EQ(PlanShardCount(1000.0, 1000.0, 16), 1u);
  EXPECT_EQ(PlanShardCount(std::nextafter(1000.0, 2000.0), 1000.0, 16), 2u);
  // want == kernels lands exactly on the kernel clamp.
  EXPECT_EQ(PlanShardCount(16000.0, 1000.0, 16), 16u);
  EXPECT_EQ(PlanShardCount(15999.0, 1000.0, 16), 16u);  // ceil -> clamp
}

TEST(PlanShardCountTest, NonPositiveThresholdDisablesSplitting) {
  EXPECT_EQ(PlanShardCount(1e9, 0.0, 64), 1u);
  EXPECT_EQ(PlanShardCount(1e9, -5.0, 64), 1u);
}

}  // namespace
}  // namespace mce::decision
