// Tests for the semiring-generic kernel and the applications on top of it
// (SSSP, connected components, personalized PageRank), each validated
// against an independent classical reference (Dijkstra, union-find, dense
// power iteration).
#include <gtest/gtest.h>

#include <queue>

#include "apps/connected_components.hpp"
#include "apps/ppr.hpp"
#include "apps/sssp.hpp"
#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/tile_spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/vector_gen.hpp"

namespace tilespmspv {
namespace {

// ------------------------------------------------------------- semiring

TEST(Semiring, PlusTimesMatchesOptimizedKernel) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(500, 400, 0.02, 701));
  SparseVec<value_t> x = gen_sparse_vector(400, 0.05, 1);
  SemiringOperator<PlusTimes<value_t>> op(a);
  EXPECT_TRUE(approx_equal(op.multiply(x), spmspv_rowwise_reference(a, x)));
}

TEST(Semiring, PlusTimesWithExtraction) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.003, 702));
  SparseVec<value_t> x = gen_sparse_vector(300, 0.1, 2);
  SemiringOperator<PlusTimes<value_t>> op(a, 16, /*extract=*/4);
  EXPECT_TRUE(approx_equal(op.multiply(x), spmspv_rowwise_reference(a, x)));
}

TEST(Semiring, MinPlusHandExample) {
  // 0 -> 1 (w 2), 0 -> 2 (w 5), 1 -> 2 (w 1). One relaxation from
  // {0: 0, 1: 2} gives y_1 = 0+2, y_2 = min(0+5, 2+1) = 3.
  Coo<value_t> coo(3, 3);
  coo.push(1, 0, 2.0);
  coo.push(2, 0, 5.0);
  coo.push(2, 1, 1.0);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  SemiringOperator<MinPlus<value_t>> op(a);
  SparseVec<value_t> x(3);
  x.push(0, 0.0);
  x.push(1, 2.0);
  SparseVec<value_t> y = op.multiply(x);
  ASSERT_EQ(y.nnz(), 2);
  EXPECT_EQ(y.idx, (std::vector<index_t>{1, 2}));
  EXPECT_DOUBLE_EQ(y.vals[0], 2.0);
  EXPECT_DOUBLE_EQ(y.vals[1], 3.0);
}

TEST(Semiring, MinPlusZeroDistanceSourceSurvives) {
  // A frontier value of 0.0 is *not* the min-plus identity (inf) and must
  // propagate — the classic pitfall the padded tile build has to avoid.
  Coo<value_t> coo(2, 2);
  coo.push(1, 0, 7.0);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  SemiringOperator<MinPlus<value_t>> op(a);
  SparseVec<value_t> x(2);
  x.push(0, 0.0);
  SparseVec<value_t> y = op.multiply(x);
  ASSERT_EQ(y.nnz(), 1);
  EXPECT_DOUBLE_EQ(y.vals[0], 7.0);
}

TEST(Semiring, OrAndGivesOneHopReachability) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(200, 200, 0.02, 703));
  SparseVec<value_t> x(200);
  x.push(3, 1.0);
  x.push(77, 1.0);
  SemiringOperator<OrAnd<value_t>> op(a);
  SparseVec<value_t> y = op.multiply(x);
  // Expected: union of columns 3 and 77 patterns.
  std::set<index_t> expect;
  for (index_t r = 0; r < 200; ++r) {
    for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      if (a.col_idx[i] == 3 || a.col_idx[i] == 77) expect.insert(r);
    }
  }
  EXPECT_EQ(std::set<index_t>(y.idx.begin(), y.idx.end()), expect);
  for (value_t v : y.vals) EXPECT_EQ(v, 1.0);
}

TEST(Semiring, MaxTimesSelectsBestPath) {
  // Reliability: y_i = max_j (a_ij * x_j).
  Coo<value_t> coo(2, 2);
  coo.push(1, 0, 0.5);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  SemiringOperator<MaxTimes<value_t>> op(a);
  SparseVec<value_t> x(2);
  x.push(0, 0.8);
  SparseVec<value_t> y = op.multiply(x);
  ASSERT_EQ(y.nnz(), 1);
  EXPECT_DOUBLE_EQ(y.vals[0], 0.4);
}

TEST(Semiring, ParallelPoolGivesSameResult) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(800, 800, 0.01, 704));
  SparseVec<value_t> x = gen_sparse_vector(800, 0.2, 3);
  ThreadPool pool(8);
  SemiringOperator<MinPlus<value_t>> op1(a);
  SemiringOperator<MinPlus<value_t>> op8(a, 16, 2, &pool);
  SparseVec<value_t> y1 = op1.multiply(x);
  SparseVec<value_t> y8 = op8.multiply(x);
  EXPECT_EQ(y1.idx, y8.idx);
  EXPECT_EQ(y1.vals, y8.vals);  // min is exact: bitwise equal
}

// ----------------------------------------------------------------- SSSP

std::vector<double> dijkstra_reference(const Csr<value_t>& a,
                                       index_t source) {
  // `a` uses A[i][j] = weight(j -> i): out-edges of u are column u, so
  // run over the transpose for row access.
  Csr<value_t> out_edges = a.transpose();
  const index_t n = a.rows;
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, index_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (offset_t i = out_edges.row_ptr[u]; i < out_edges.row_ptr[u + 1];
         ++i) {
      const index_t v = out_edges.col_idx[i];
      const double nd = d + out_edges.vals[i];
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist;
}

class SsspSweep
    : public ::testing::TestWithParam<std::tuple<index_t, double, std::uint64_t>> {};

TEST_P(SsspSweep, MatchesDijkstra) {
  const auto [n, p, seed] = GetParam();
  Coo<value_t> coo = gen_erdos_renyi(n, n, p, seed);  // weights in (0.1, 1)
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  const auto expect = dijkstra_reference(a, 0);
  const SsspResult got = sssp(a, 0);
  for (index_t v = 0; v < n; ++v) {
    if (std::isinf(expect[v])) {
      EXPECT_TRUE(std::isinf(got.dist[v])) << v;
    } else {
      EXPECT_NEAR(got.dist[v], expect[v], 1e-9) << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspSweep,
    ::testing::Combine(::testing::Values<index_t>(50, 300, 1200),
                       ::testing::Values(0.005, 0.02),
                       ::testing::Values<std::uint64_t>(711, 712)));

TEST(Sssp, PathGraphDistancesAreCumulative) {
  Coo<value_t> coo(5, 5);
  double total = 0.0;
  std::vector<double> expect{0.0};
  for (index_t i = 0; i + 1 < 5; ++i) {
    const double w = 0.5 + i;
    coo.push(i + 1, i, w);  // edge i -> i+1
    total += w;
    expect.push_back(total);
  }
  const SsspResult r = sssp(Csr<value_t>::from_coo(coo), 0);
  for (index_t v = 0; v < 5; ++v) EXPECT_NEAR(r.dist[v], expect[v], 1e-12);
  EXPECT_EQ(r.rounds, 5);  // 4 relaxation rounds + 1 empty-check round
}

TEST(Sssp, UnreachableStaysInfinite) {
  Coo<value_t> coo(4, 4);
  coo.push(1, 0, 1.0);
  const SsspResult r = sssp(Csr<value_t>::from_coo(coo), 0);
  EXPECT_TRUE(std::isinf(r.dist[2]));
  EXPECT_TRUE(std::isinf(r.dist[3]));
}

TEST(Sssp, ShorterLateDiscoveryWins) {
  // Direct heavy edge vs longer light path: 0->2 weight 10; 0->1->2
  // weight 1+1: Bellman-Ford must settle on 2.
  Coo<value_t> coo(3, 3);
  coo.push(2, 0, 10.0);
  coo.push(1, 0, 1.0);
  coo.push(2, 1, 1.0);
  const SsspResult r = sssp(Csr<value_t>::from_coo(coo), 0);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
}

// ------------------------------------------------- connected components

index_t union_find_count(const Csr<value_t>& a) {
  std::vector<index_t> parent(a.rows);
  std::iota(parent.begin(), parent.end(), index_t{0});
  std::function<index_t(index_t)> find = [&](index_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (index_t r = 0; r < a.rows; ++r) {
    for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      parent[find(r)] = find(a.col_idx[i]);
    }
  }
  std::set<index_t> roots;
  for (index_t v = 0; v < a.rows; ++v) roots.insert(find(v));
  return static_cast<index_t>(roots.size());
}

TEST(ConnectedComponents, CountMatchesUnionFind) {
  for (std::uint64_t seed : {721, 722, 723}) {
    Coo<value_t> coo = gen_erdos_renyi(500, 500, 0.0015, seed);
    coo.symmetrize();
    Csr<value_t> a = Csr<value_t>::from_coo(coo);
    const ComponentsResult r = connected_components(a);
    EXPECT_EQ(r.count, union_find_count(a)) << "seed " << seed;
    // Same component <=> connected by an edge (spot check edges).
    for (index_t v = 0; v < a.rows; ++v) {
      for (offset_t i = a.row_ptr[v]; i < a.row_ptr[v + 1]; ++i) {
        EXPECT_EQ(r.component[v], r.component[a.col_idx[i]]);
      }
    }
  }
}

TEST(ConnectedComponents, IsolatedVerticesAreSingletons) {
  Coo<value_t> coo(5, 5);
  coo.push(0, 1, 1.0);
  coo.push(1, 0, 1.0);
  const ComponentsResult r =
      connected_components(Csr<value_t>::from_coo(coo));
  EXPECT_EQ(r.count, 4);  // {0,1}, {2}, {3}, {4}
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_NE(r.component[2], r.component[3]);
}

TEST(ConnectedComponents, GridIsOneComponent) {
  Csr<value_t> a = Csr<value_t>::from_coo(gen_grid2d(20, 20, 1.0, 724));
  EXPECT_EQ(connected_components(a).count, 1);
}

// ------------------------------------------------------------------ PPR

std::vector<double> ppr_dense_reference(const Csr<value_t>& adj,
                                        const SparseVec<value_t>& seeds,
                                        double alpha, int iters) {
  Csr<value_t> p = column_stochastic(adj);
  const index_t n = adj.rows;
  std::vector<double> scores(n, 0.0);
  std::vector<double> r = [&] {
    std::vector<double> d(n, 0.0);
    for (std::size_t k = 0; k < seeds.idx.size(); ++k) {
      d[seeds.idx[k]] = seeds.vals[k];
    }
    return d;
  }();
  for (int t = 0; t < iters; ++t) {
    for (index_t v = 0; v < n; ++v) scores[v] += (1.0 - alpha) * r[v];
    std::vector<double> nr(n, 0.0);
    for (index_t i = 0; i < n; ++i) {
      for (offset_t k = p.row_ptr[i]; k < p.row_ptr[i + 1]; ++k) {
        nr[i] += alpha * p.vals[k] * r[p.col_idx[k]];
      }
    }
    r = std::move(nr);
  }
  return scores;
}

TEST(Ppr, MatchesDensePowerIteration) {
  Coo<value_t> coo = gen_erdos_renyi(300, 300, 0.02, 731);
  coo.symmetrize();
  Csr<value_t> adj = Csr<value_t>::from_coo(coo);
  SparseVec<value_t> seeds(300);
  seeds.push(7, 1.0);
  PprConfig cfg;
  cfg.epsilon = 0.0;  // exact propagation
  cfg.max_iterations = 60;
  const PprResult got = personalized_pagerank(adj, seeds, cfg);
  const auto expect = ppr_dense_reference(adj, seeds, cfg.alpha, 60);
  const auto dense = got.scores.to_dense();
  for (index_t v = 0; v < 300; ++v) {
    EXPECT_NEAR(dense[v], expect[v], 1e-6) << v;
  }
}

TEST(Ppr, MassIsConservedUpToTruncation) {
  Coo<value_t> coo = gen_erdos_renyi(500, 500, 0.01, 732);
  coo.symmetrize();
  Csr<value_t> adj = Csr<value_t>::from_coo(coo);
  SparseVec<value_t> seeds(500);
  seeds.push(0, 0.5);
  seeds.push(100, 0.5);
  PprConfig cfg;
  cfg.epsilon = 1e-8;
  cfg.max_iterations = 200;
  const PprResult r = personalized_pagerank(adj, seeds, cfg);
  double total = r.truncated_mass;
  for (value_t v : r.scores.vals) total += v;
  // Dangling columns lose mass; with a symmetrized ER graph of avg degree
  // ~10 they are rare, so conservation holds within a few percent.
  EXPECT_NEAR(total, 1.0, 0.05);
}

TEST(Ppr, SeedNeighborhoodDominates) {
  // On a long path, mass concentrates near the seed.
  Coo<value_t> coo(200, 200);
  for (index_t i = 0; i + 1 < 200; ++i) {
    coo.push(i, i + 1, 1.0);
    coo.push(i + 1, i, 1.0);
  }
  Csr<value_t> adj = Csr<value_t>::from_coo(coo);
  SparseVec<value_t> seeds(200);
  seeds.push(100, 1.0);
  const PprResult r = personalized_pagerank(adj, seeds);
  const auto d = r.scores.to_dense();
  EXPECT_GT(d[100], d[90]);
  EXPECT_GT(d[90], d[50]);
  EXPECT_GT(d[100], 0.1);
}

TEST(Ppr, ColumnStochasticColumnsSumToOne) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(100, 100, 0.05, 733));
  Csr<value_t> p = column_stochastic(a);
  std::vector<double> colsum(100, 0.0);
  for (index_t r = 0; r < 100; ++r) {
    for (offset_t i = p.row_ptr[r]; i < p.row_ptr[r + 1]; ++i) {
      colsum[p.col_idx[i]] += p.vals[i];
    }
  }
  for (index_t j = 0; j < 100; ++j) {
    if (colsum[j] > 0.0) {
      EXPECT_NEAR(colsum[j], 1.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace tilespmspv
