// BFS correctness: TileBFS (every kernel combination of the Fig. 9
// ablation) and all three baseline BFS implementations must produce level
// arrays identical to the serial reference, across graph classes, sources
// and pool sizes. Directed graphs exercise the CSR/CSC duality.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "baselines/dobfs.hpp"
#include "baselines/enterprise_bfs.hpp"
#include "baselines/gswitch_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "bfs/tile_bfs.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/suite.hpp"

namespace tilespmspv {
namespace {

Csr<value_t> undirected_graph(index_t n, double density, std::uint64_t seed) {
  Coo<value_t> coo = gen_erdos_renyi(n, n, density, seed);
  coo.symmetrize();
  return Csr<value_t>::from_coo(coo);
}

TEST(SerialBfs, PaperFigure2Example) {
  // Undirected 6-vertex graph; from vertex 0 the first layer is {1,2,3}
  // in the paper's renumbering -- here rebuilt as in Fig. 2: edges
  // 0-{1,2,3}, 1-{4}, 2-{4}, 3-{5}.
  Coo<value_t> coo(6, 6);
  for (auto [u, v] : std::vector<std::pair<index_t, index_t>>{
           {0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 5}}) {
    coo.push(u, v, 1.0);
    coo.push(v, u, 1.0);
  }
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  const auto levels = serial_bfs(a, 0);
  EXPECT_EQ(levels, (std::vector<index_t>{0, 1, 1, 1, 2, 2}));
}

struct BfsCase {
  const char* name;
  Csr<value_t> graph;
  index_t source;
};

std::vector<BfsCase> bfs_cases() {
  std::vector<BfsCase> cases;
  cases.push_back({"er-dense", undirected_graph(400, 0.02, 301), 0});
  cases.push_back({"er-sparse", undirected_graph(1500, 0.002, 302), 7});
  cases.push_back(
      {"er-disconnected", undirected_graph(800, 0.0008, 303), 11});
  {
    RmatParams p;
    p.scale = 10;
    p.edge_factor = 8;
    cases.push_back({"rmat", Csr<value_t>::from_coo(gen_rmat(p, 304)), 0});
  }
  cases.push_back(
      {"grid", Csr<value_t>::from_coo(gen_grid2d(40, 40, 1.0, 305)), 820});
  cases.push_back(
      {"grid-thinned", Csr<value_t>::from_coo(gen_grid2d(50, 30, 0.8, 306)),
       3});
  // Larger than the order threshold so NT=64 is exercised.
  cases.push_back({"er-large", undirected_graph(12000, 0.0006, 307), 5});
  {
    // Path graph: maximal level count, single-vertex frontiers throughout.
    Coo<value_t> coo(500, 500);
    for (index_t i = 0; i + 1 < 500; ++i) {
      coo.push(i, i + 1, 1.0);
      coo.push(i + 1, i, 1.0);
    }
    cases.push_back({"path", Csr<value_t>::from_coo(coo), 0});
  }
  {
    // Star graph: one two-level hop covering everything.
    Coo<value_t> coo(300, 300);
    for (index_t i = 1; i < 300; ++i) {
      coo.push(0, i, 1.0);
      coo.push(i, 0, 1.0);
    }
    cases.push_back({"star", Csr<value_t>::from_coo(coo), 0});
  }
  {
    // Isolated source: BFS must terminate immediately.
    Coo<value_t> coo(100, 100);
    coo.push(1, 2, 1.0);
    coo.push(2, 1, 1.0);
    cases.push_back({"isolated-source", Csr<value_t>::from_coo(coo), 0});
  }
  return cases;
}

class BfsGraphs : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<BfsCase>& cases() {
    static const std::vector<BfsCase> c = bfs_cases();
    return c;
  }
};

TEST_P(BfsGraphs, TileBfsMatchesSerialAllKernelMasks) {
  const BfsCase& c = cases()[GetParam()];
  const auto expect = serial_bfs(c.graph, c.source);
  for (unsigned mask : {1u, 2u, 4u, 3u, 5u, 6u, 7u}) {
    TileBfsConfig cfg;
    cfg.kernel_mask = mask;
    TileBfs bfs(c.graph, cfg);
    const BfsResult r = bfs.run(c.source);
    EXPECT_EQ(r.levels, expect) << c.name << " mask=" << mask;
  }
}

TEST_P(BfsGraphs, TileBfsWithExtractionMatchesSerial) {
  const BfsCase& c = cases()[GetParam()];
  const auto expect = serial_bfs(c.graph, c.source);
  for (index_t extract : {0, 2, 8}) {
    TileBfsConfig cfg;
    cfg.extract_threshold = extract;
    TileBfs bfs(c.graph, cfg);
    EXPECT_EQ(bfs.run(c.source).levels, expect)
        << c.name << " extract=" << extract;
  }
}

TEST_P(BfsGraphs, DobfsMatchesSerial) {
  const BfsCase& c = cases()[GetParam()];
  const auto expect = serial_bfs(c.graph, c.source);
  ThreadPool pool(4);
  EXPECT_EQ(dobfs(c.graph, c.graph, c.source, {}, &pool), expect) << c.name;
}

TEST_P(BfsGraphs, GswitchMatchesSerial) {
  const BfsCase& c = cases()[GetParam()];
  const auto expect = serial_bfs(c.graph, c.source);
  ThreadPool pool(4);
  GswitchTuner tuner;
  // Run twice: the second run uses the trained tuner table.
  EXPECT_EQ(gswitch_bfs(c.graph, c.graph, c.source, tuner, &pool), expect);
  EXPECT_EQ(gswitch_bfs(c.graph, c.graph, c.source, tuner, &pool), expect)
      << c.name;
}

TEST_P(BfsGraphs, EnterpriseMatchesSerial) {
  const BfsCase& c = cases()[GetParam()];
  const auto expect = serial_bfs(c.graph, c.source);
  ThreadPool pool(4);
  EXPECT_EQ(enterprise_bfs(c.graph, c.graph, c.source, {}, &pool), expect)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(Graphs, BfsGraphs,
                         ::testing::Range<std::size_t>(0, bfs_cases().size()));

TEST(TileBfs, DirectedGraphIsCorrect) {
  // Directed chain with a shortcut; TileBfs expands along out-edges, i.e.
  // the adjacency convention A[dst][src]. Build A accordingly and compare
  // against serial BFS over the out-edge CSR (= A transposed).
  Coo<value_t> adj(200, 200);  // A[i][j] = edge j -> i
  Prng rng(401);
  for (index_t e = 0; e < 600; ++e) {
    const index_t u = static_cast<index_t>(rng.next_below(200));
    const index_t v = static_cast<index_t>(rng.next_below(200));
    if (u != v) adj.push(v, u, 1.0);
  }
  adj.sort_row_major();
  adj.sum_duplicates();
  Csr<value_t> a = Csr<value_t>::from_coo(adj);
  Csr<value_t> out_edges = a.transpose();
  const auto expect = serial_bfs(out_edges, 0);
  TileBfs bfs(a);
  EXPECT_EQ(bfs.run(0).levels, expect);
  // Baselines take (out_edges, in_edges) explicitly.
  ThreadPool pool(2);
  EXPECT_EQ(dobfs(out_edges, a, 0, {}, &pool), expect);
  EXPECT_EQ(enterprise_bfs(out_edges, a, 0, {}, &pool), expect);
}

// The paper's rule (§3.4): an order of at most 10,000 gives 32-wide tiles,
// one more vertex gives 64-wide tiles.
TEST(TileBfs, TileSizeFollowsOrderRule) {
  Csr<value_t> small = undirected_graph(10000, 0.0008, 402);
  Csr<value_t> large = undirected_graph(10001, 0.0008, 403);
  EXPECT_EQ(TileBfs(small).tile_size(), 32);
  EXPECT_EQ(TileBfs(large).tile_size(), 64);
}

TEST(TileBfs, IterationLogIsConsistent) {
  Csr<value_t> g = undirected_graph(2000, 0.003, 404);
  TileBfs bfs(g);
  const BfsResult r = bfs.run(0);
  // Levels in the log are 1,2,3,... and frontier sizes must match the
  // number of vertices assigned to the previous level.
  index_t prev_count = 1;  // source at level 0
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    EXPECT_EQ(r.iterations[i].level, static_cast<int>(i + 1));
    EXPECT_EQ(r.iterations[i].frontier_size, prev_count);
    prev_count = 0;
    for (index_t l : r.levels) {
      if (l == static_cast<index_t>(i + 1)) ++prev_count;
    }
  }
  EXPECT_GT(r.total_ms, 0.0);
}

TEST(TileBfs, SelectorUsesAllThreeKernelsOnSuitableGraph) {
  // A sparse expander passes through all three regimes: Push-CSC on the
  // first levels (tiny frontier), Push-CSR mid-traversal (frontier dense
  // AND scattered over most tile words), and Pull-CSC on the final level
  // (unvisited set smaller than the frontier).
  Csr<value_t> g = undirected_graph(4000, 0.0012, 405);
  TileBfs bfs(g);
  const BfsResult r = bfs.run(0);
  bool used[3] = {false, false, false};
  for (const auto& it : r.iterations) {
    used[static_cast<int>(it.kernel)] = true;
  }
  EXPECT_TRUE(used[0]) << "Push-CSC never selected";
  EXPECT_TRUE(used[1]) << "Push-CSR never selected";
  EXPECT_TRUE(used[2]) << "Pull-CSC never selected";
}

TEST(TileBfs, RepeatedRunsFromDifferentSources) {
  Csr<value_t> g = undirected_graph(1000, 0.004, 406);
  TileBfs bfs(g);
  for (index_t src : {0, 1, 999, 500}) {
    EXPECT_EQ(bfs.run(src).levels, serial_bfs(g, src)) << "src=" << src;
  }
}

TEST(TileBfs, RejectsNonSquare) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(10, 20, 0.1, 407));
  EXPECT_THROW(TileBfs{a}, std::invalid_argument);
}

TEST(TileBfs, RejectsEmptyKernelMask) {
  Csr<value_t> g = undirected_graph(100, 0.05, 408);
  TileBfsConfig cfg;
  cfg.kernel_mask = 0;
  EXPECT_THROW(TileBfs(g, cfg), std::invalid_argument);
}

// A source outside [0, n) must throw before the run touches any state:
// both overloads, and a workspace that saw the rejected calls still gives
// correct levels afterwards.
TEST(TileBfs, RejectsOutOfRangeSource) {
  const Csr<value_t> a = undirected_graph(300, 0.02, 9);
  const TileBfs bfs(a);
  BfsWorkspace ws;
  EXPECT_THROW(bfs.run(-1), std::out_of_range);
  EXPECT_THROW(bfs.run(a.rows), std::out_of_range);
  EXPECT_THROW(bfs.run(a.rows, ws), std::out_of_range);
  EXPECT_THROW(bfs.run(-1, ws), std::out_of_range);
  EXPECT_EQ(bfs.run(5, ws).levels, serial_bfs(a, 5));
  EXPECT_EQ(bfs.run(a.rows - 1, ws).levels, serial_bfs(a, a.rows - 1));
}

TEST(TileBfs, VisitedCountMatchesReachableSet) {
  Csr<value_t> g = undirected_graph(600, 0.001, 409);  // likely disconnected
  TileBfs bfs(g);
  const BfsResult r = bfs.run(0);
  const auto expect = serial_bfs(g, 0);
  index_t reachable = 0;
  for (index_t l : expect) {
    if (l >= 0) ++reachable;
  }
  EXPECT_EQ(r.visited_count(), reachable);
}

TEST(TileBfs, IterationLogCarriesSelectorInputs) {
  Csr<value_t> g = undirected_graph(2000, 0.003, 411);
  TileBfs bfs(g);
  const BfsResult r = bfs.run(0);
  ASSERT_FALSE(r.iterations.empty());
  const double n = static_cast<double>(g.rows);
  for (const auto& it : r.iterations) {
    // The recorded densities are exactly the selector's inputs, derived
    // from the recorded absolute sizes.
    EXPECT_DOUBLE_EQ(it.frontier_density,
                     static_cast<double>(it.frontier_size) / n);
    EXPECT_DOUBLE_EQ(it.unvisited_frac,
                     static_cast<double>(it.unvisited) / n);
    EXPECT_GE(it.frontier_density, 0.0);
    EXPECT_LE(it.frontier_density, 1.0);
    EXPECT_LE(it.unvisited_frac, 1.0);
  }
}

// A traversal's shares and owner ranges follow the pool: at 3 members the
// owner ranges do not divide the word count evenly, and on a sharded pool
// the matrix-driven home chunks follow the shard homes (with 4 shards on a
// 2-thread pool, two shards have no home slot). Every layout must give the
// serial levels and the same per-level log. road-small runs Push-CSC only;
// the R-MAT hub graph runs all three kernels.
TEST(TileBfs, PoolSizesGiveIdenticalLevels) {
  struct Case {
    const char* name;
    Csr<value_t> graph;
    index_t source;
    bool all_kernels;
  };
  std::vector<Case> cases;
  cases.push_back({"road-small", Csr<value_t>::from_coo(suite_matrix("road-small")),
                   0, false});
  {
    RmatParams p;
    p.scale = 11;
    p.edge_factor = 32;  // dense enough that the tail level pulls
    const Csr<value_t> rmat = Csr<value_t>::from_coo(gen_rmat(p, 410));
    index_t hub = 0;
    for (index_t v = 0; v < rmat.rows; ++v) {
      if (rmat.row_nnz(v) > rmat.row_nnz(hub)) hub = v;
    }
    cases.push_back({"rmat-hub", rmat, hub, true});
  }
  struct Layout {
    std::size_t threads;
    int shards;
  };
  const std::vector<Layout> layouts = {{1, 1}, {2, 1}, {3, 1}, {4, 1},
                                       {8, 1}, {3, 2}, {2, 4}};
  for (const Case& c : cases) {
    const auto expect = serial_bfs(c.graph, c.source);
    ThreadPool serial_pool(1);
    const BfsResult ref = TileBfs(c.graph, {}, &serial_pool).run(c.source);
    ASSERT_EQ(ref.levels, expect) << c.name;
    bool used[3] = {false, false, false};
    for (const BfsIterationLog& it : ref.iterations) {
      used[static_cast<int>(it.kernel)] = true;
    }
    EXPECT_TRUE(used[0]) << c.name;
    EXPECT_EQ(used[1], c.all_kernels) << c.name;
    EXPECT_EQ(used[2], c.all_kernels) << c.name;
    for (const Layout& l : layouts) {
      ThreadPool pool(l.threads);
      if (l.shards > 1) pool.configure_shards(l.shards, /*pin_threads=*/false);
      const TileBfs bfs(c.graph, {}, &pool);
      for (int rep = 0; rep < 3; ++rep) {
        const BfsResult r = bfs.run(c.source);
        const std::string where = std::string(c.name) +
                                  " threads=" + std::to_string(l.threads) +
                                  " shards=" + std::to_string(l.shards);
        ASSERT_EQ(r.levels, expect) << where;
        ASSERT_EQ(r.iterations.size(), ref.iterations.size()) << where;
        for (std::size_t i = 0; i < r.iterations.size(); ++i) {
          EXPECT_EQ(r.iterations[i].kernel, ref.iterations[i].kernel)
              << where << " level " << i + 1;
          EXPECT_EQ(r.iterations[i].frontier_size,
                    ref.iterations[i].frontier_size)
              << where << " level " << i + 1;
          EXPECT_EQ(r.iterations[i].frontier_words,
                    ref.iterations[i].frontier_words)
              << where << " level " << i + 1;
        }
      }
    }
  }
}

// Several threads may run one-shot traversals on one TileBfs and one pool
// at once: each run has its own workspace and leads its own team, and no
// run waits for members of another.
TEST(TileBfs, ConcurrentOneShotRunsOnOnePool) {
  const Csr<value_t> g =
      Csr<value_t>::from_coo(gen_grid2d(40, 40, 0.9, 413));
  ThreadPool pool(4);
  const TileBfs bfs(g, {}, &pool);
  const std::vector<index_t> sources = {0, 5, 799, 1234, 1599};
  std::vector<std::vector<index_t>> expect;
  for (index_t s : sources) expect.push_back(serial_bfs(g, s));
  std::atomic<int> mismatches{0};  // lint:allow(raw-atomic)
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::size_t k =
            static_cast<std::size_t>(t + i) % sources.size();
        if (bfs.run(sources[k]).levels != expect[k]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace tilespmspv
