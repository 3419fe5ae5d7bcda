// Tests for configuration knobs across the BFS stack: the TileBfs kernel
// mask and extraction threshold, baseline configs, and the GSwitch tuner's
// explore/exploit behaviour. Every knob setting must preserve correctness;
// several also have observable scheduling effects that are asserted here.
#include <gtest/gtest.h>

#include "baselines/dobfs.hpp"
#include "baselines/enterprise_bfs.hpp"
#include "baselines/gswitch_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "bfs/tile_bfs.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"

namespace tilespmspv {
namespace {

Csr<value_t> undirected(index_t n, double p, std::uint64_t seed) {
  Coo<value_t> coo = gen_erdos_renyi(n, n, p, seed);
  coo.symmetrize();
  return Csr<value_t>::from_coo(coo);
}

TEST(TileBfsConfig, PullOnlyMaskTraversesCorrectly) {
  // kernel_mask = 4: every iteration is a pull — the slowest but still
  // correct extreme of the Fig. 9 ablation space.
  Csr<value_t> g = undirected(600, 0.01, 1005);
  TileBfsConfig cfg;
  cfg.kernel_mask = 4;
  TileBfs bfs(g, cfg);
  const BfsResult r = bfs.run(3);
  EXPECT_EQ(r.levels, serial_bfs(g, 3));
  for (const auto& it : r.iterations) {
    EXPECT_EQ(it.kernel, BfsKernel::kPullCsc);
  }
}

TEST(TileBfsConfig, ExtractionThresholdExtremes) {
  Csr<value_t> g = undirected(800, 0.003, 1006);
  const auto expect = serial_bfs(g, 0);
  // Everything extracted: the traversal runs entirely on the side pass.
  TileBfsConfig all_side;
  all_side.extract_threshold = 1 << 20;
  TileBfs bfs(g, all_side);
  EXPECT_EQ(bfs.num_tiles(), 0);
  EXPECT_EQ(bfs.side_edge_count(), g.nnz());
  EXPECT_EQ(bfs.run(0).levels, expect);
}

TEST(DobfsConfig, AlphaBetaExtremesStayCorrect) {
  Csr<value_t> g = undirected(1200, 0.004, 1007);
  const auto expect = serial_bfs(g, 0);
  for (double alpha : {1e-6, 15.0, 1e9}) {
    for (double beta : {1e-6, 18.0, 1e9}) {
      DobfsConfig cfg;
      cfg.alpha = alpha;
      cfg.beta = beta;
      ASSERT_EQ(dobfs(g, g, 0, cfg), expect) << alpha << "/" << beta;
    }
  }
}

TEST(EnterpriseConfig, DegreeClassBoundariesStayCorrect) {
  Csr<value_t> g = undirected(900, 0.01, 1008);
  const auto expect = serial_bfs(g, 0);
  for (index_t small : {0, 4, 1000000}) {
    for (index_t large : {1, 64, 1000000}) {
      EnterpriseConfig cfg;
      cfg.small_degree = small;
      cfg.large_degree = large;
      ASSERT_EQ(enterprise_bfs(g, g, 0, cfg), expect)
          << small << "/" << large;
    }
  }
}

TEST(EnterpriseConfig, PullThresholdExtremes) {
  Csr<value_t> g = undirected(700, 0.008, 1009);
  const auto expect = serial_bfs(g, 0);
  for (double pull : {0.0, 0.05, 2.0}) {
    EnterpriseConfig cfg;
    cfg.pull_threshold = pull;
    ASSERT_EQ(enterprise_bfs(g, g, 0, cfg), expect) << pull;
  }
}

TEST(GswitchTuner, ExploresEachStrategyOncePerBucket) {
  GswitchTuner tuner;
  // Fixed features within one density bucket.
  const double density = 0.05, unvisited = 0.9, deg = 10.0;
  std::set<GswitchStrategy> tried;
  for (int i = 0; i < 3; ++i) {
    const GswitchStrategy s = tuner.choose(density, unvisited, deg);
    tried.insert(s);
    tuner.record(density, s, /*vertices_per_ms=*/1.0 + i);
  }
  EXPECT_EQ(tried.size(), 3u);  // all three explored
}

TEST(GswitchTuner, ExploitsBestObservedThroughput) {
  GswitchTuner tuner;
  const double density = 0.05, unvisited = 0.9, deg = 10.0;
  // Train: strategy 1 (bitmap push) is by far the best.
  tuner.record(density, GswitchStrategy::kQueuePush, 1.0);
  tuner.record(density, GswitchStrategy::kBitmapPush, 100.0);
  tuner.record(density, GswitchStrategy::kPull, 2.0);
  EXPECT_EQ(tuner.choose(density, unvisited, deg),
            GswitchStrategy::kBitmapPush);
}

TEST(GswitchTuner, BucketsAreIndependent) {
  GswitchTuner tuner;
  tuner.record(0.2, GswitchStrategy::kPull, 50.0);
  tuner.record(0.2, GswitchStrategy::kQueuePush, 1.0);
  tuner.record(0.2, GswitchStrategy::kBitmapPush, 1.0);
  // A much sparser bucket is still untrained -> exploration, not kPull.
  tuner.record(1e-5, GswitchStrategy::kQueuePush, 1.0);
  const GswitchStrategy s = tuner.choose(1e-5, 0.9, 3.0);
  EXPECT_NE(s, GswitchStrategy::kQueuePush);  // explores an untried one
}

}  // namespace
}  // namespace tilespmspv
