// Tests for bit-parallel multi-source BFS: every batched traversal must
// match an independent single-source run, across batch sizes, pool sizes
// and graph classes.
#include <gtest/gtest.h>

#include "apps/ms_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"

namespace tilespmspv {
namespace {

Csr<value_t> undirected(index_t n, double p, std::uint64_t seed) {
  Coo<value_t> coo = gen_erdos_renyi(n, n, p, seed);
  coo.symmetrize();
  return Csr<value_t>::from_coo(coo);
}

class MsBfsBatch : public ::testing::TestWithParam<int> {};

TEST_P(MsBfsBatch, EverySourceMatchesSerial) {
  const int k = GetParam();
  Csr<value_t> g = undirected(1000, 0.004, 801);
  std::vector<index_t> sources;
  for (int s = 0; s < k; ++s) {
    sources.push_back(static_cast<index_t>((s * 131) % 1000));
  }
  const MsBfsResult r = ms_bfs(g, sources);
  ASSERT_EQ(r.levels.size(), static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    EXPECT_EQ(r.levels[s], serial_bfs(g, sources[s])) << "source slot " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MsBfsBatch,
                         ::testing::Values(1, 2, 7, 32, 64));

TEST(MsBfs, RejectsTooManySources) {
  Csr<value_t> g = undirected(100, 0.05, 802);
  std::vector<index_t> sources(65, 0);
  EXPECT_THROW(ms_bfs(g, sources), std::invalid_argument);
}

TEST(MsBfs, EmptySourceList) {
  Csr<value_t> g = undirected(50, 0.05, 803);
  const MsBfsResult r = ms_bfs(g, {});
  EXPECT_TRUE(r.levels.empty());
  EXPECT_EQ(r.rounds, 0);
}

TEST(MsBfs, DuplicateSourcesAreIndependentSlots) {
  Csr<value_t> g = undirected(200, 0.02, 804);
  const MsBfsResult r = ms_bfs(g, {5, 5, 5});
  EXPECT_EQ(r.levels[0], r.levels[1]);
  EXPECT_EQ(r.levels[1], r.levels[2]);
  EXPECT_EQ(r.levels[0], serial_bfs(g, 5));
}

TEST(MsBfs, DirectedGraph) {
  Coo<value_t> coo(150, 150);
  Prng rng(805);
  for (int e = 0; e < 500; ++e) {
    const auto u = static_cast<index_t>(rng.next_below(150));
    const auto v = static_cast<index_t>(rng.next_below(150));
    if (u != v) coo.push(u, v, 1.0);  // row u = out-neighbors of u
  }
  coo.sort_row_major();
  coo.sum_duplicates();
  Csr<value_t> g = Csr<value_t>::from_coo(coo);
  const MsBfsResult r = ms_bfs(g, {0, 10, 149});
  EXPECT_EQ(r.levels[0], serial_bfs(g, 0));
  EXPECT_EQ(r.levels[1], serial_bfs(g, 10));
  EXPECT_EQ(r.levels[2], serial_bfs(g, 149));
}

TEST(MsBfs, PoolSizesAgree) {
  Csr<value_t> g = Csr<value_t>::from_coo(gen_grid2d(30, 30, 0.9, 806));
  std::vector<index_t> sources{0, 450, 899};
  const MsBfsResult base = ms_bfs(g, sources);
  for (std::size_t threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    const MsBfsResult r = ms_bfs(g, sources, &pool);
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(r.levels[s], base.levels[s]) << "threads " << threads;
    }
  }
}

TEST(MsBfs, RoundsEqualMaxEccentricityOfBatch) {
  // Path graph: source at one end needs n-1 rounds; batching with a
  // middle source must still run to the deepest traversal.
  Coo<value_t> coo(100, 100);
  for (index_t i = 0; i + 1 < 100; ++i) {
    coo.push(i, i + 1, 1.0);
    coo.push(i + 1, i, 1.0);
  }
  Csr<value_t> g = Csr<value_t>::from_coo(coo);
  const MsBfsResult r = ms_bfs(g, {0, 50});
  // 99 productive rounds plus the final round that discovers nothing.
  EXPECT_EQ(r.rounds, 100);
  EXPECT_EQ(r.levels[0][99], 99);
  EXPECT_EQ(r.levels[1][99], 49);
}

class MsBfsTiledBatch : public ::testing::TestWithParam<int> {};

TEST_P(MsBfsTiledBatch, MatchesPlainMsBfsExactly) {
  const int k = GetParam();
  Csr<value_t> g = undirected(800, 0.005, 831);
  std::vector<index_t> sources;
  for (int s = 0; s < k; ++s) {
    sources.push_back(static_cast<index_t>((s * 113) % 800));
  }
  ThreadPool pool(4);
  const MsBfsResult plain = ms_bfs(g, sources, &pool);
  const MsBfsResult tiled = ms_bfs_tiled(g, sources, {}, &pool);
  ASSERT_EQ(tiled.levels.size(), static_cast<std::size_t>(k));
  EXPECT_EQ(tiled.rounds, plain.rounds);
  for (int s = 0; s < k; ++s) {
    EXPECT_EQ(tiled.levels[s], plain.levels[s]) << "slot " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MsBfsTiledBatch,
                         ::testing::Values(1, 3, 33, 64));

TEST(MsBfsTiled, DirectedGraphAndConfigs) {
  Coo<value_t> coo(180, 180);
  Prng rng(832);
  for (int e = 0; e < 700; ++e) {
    const auto u = static_cast<index_t>(rng.next_below(180));
    const auto v = static_cast<index_t>(rng.next_below(180));
    if (u != v) coo.push(u, v, 1.0);
  }
  coo.sort_row_major();
  coo.sum_duplicates();
  Csr<value_t> g = Csr<value_t>::from_coo(coo);
  const std::vector<index_t> sources{0, 42, 179};
  const MsBfsResult plain = ms_bfs(g, sources);
  for (index_t nt : {16, 64}) {
    SpmspvConfig cfg;
    cfg.nt = nt;
    const MsBfsResult tiled = ms_bfs_tiled(g, sources, cfg);
    EXPECT_EQ(tiled.rounds, plain.rounds) << "nt " << nt;
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(tiled.levels[s], plain.levels[s]) << "nt " << nt;
    }
  }
}

TEST(MsBfsTiled, RejectsTooManySourcesAndHandlesEmpty) {
  Csr<value_t> g = undirected(64, 0.1, 833);
  EXPECT_THROW(ms_bfs_tiled(g, std::vector<index_t>(65, 0)),
               std::invalid_argument);
  const MsBfsResult r = ms_bfs_tiled(g, {});
  EXPECT_TRUE(r.levels.empty());
  EXPECT_EQ(r.rounds, 0);
}

TEST(MsBfs, SharedEdgeScansOnRmat) {
  RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  Csr<value_t> g = Csr<value_t>::from_coo(gen_rmat(p, 807));
  std::vector<index_t> sources;
  for (index_t s = 0; s < 16; ++s) sources.push_back(s * 100);
  const MsBfsResult r = ms_bfs(g, sources);
  for (int s = 0; s < 16; ++s) {
    ASSERT_EQ(r.levels[s], serial_bfs(g, sources[s])) << s;
  }
}

}  // namespace
}  // namespace tilespmspv
