// Deterministic range buckets and their merge under contention. The CSC
// kernel scatters each range of active x tiles into its own bucket and the
// gather sums the buckets in range order; the CSR side pass, which the
// block engine runs at k lanes, appends to per-range lists applied in
// range order. Range boundaries come from the matrix and x alone, so every
// form's result is bitwise identical across pool sizes, shard counts,
// repeated runs and owned vs mapped storage — the first test checks
// exactly that for all five entry points and the apps built on the block
// engine. The others hammer the bucket path with many tile columns
// scattering into few output tiles on pools of several sizes, so a data
// race in the bucket ownership or the merge hand-off is visible to
// ThreadSanitizer (CI runs this binary under TSan) and any lost update
// breaks the exact-value checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "apps/betweenness.hpp"
#include "apps/ms_bfs.hpp"
#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/tile_spmspm.hpp"
#include "core/tile_spmspv.hpp"
#include "formats/tile_file.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "tile/tile_vector_block.hpp"

namespace tilespmspv {
namespace {

bool bitwise_equal(const SparseVec<value_t>& a, const SparseVec<value_t>& b) {
  return a.n == b.n && a.idx == b.idx && a.vals.size() == b.vals.size() &&
         (a.vals.empty() ||
          std::memcmp(a.vals.data(), b.vals.data(),
                      a.vals.size() * sizeof(value_t)) == 0);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// One pool's results for every form on every input vector, computed on one
// workspace (and one semiring operator) `reps` times over; each repeat must
// reproduce the first bit for bit. Per vector the CSR, CSC, masked and
// semiring forms, then one lane per vector of the block engine on all the
// vectors as one block.
struct FormRunner {
  const Csr<value_t>& a;
  const TileMatrix<value_t>& tiled;
  const TileMatrix<value_t>& tiled_t;
  const std::vector<SparseVec<value_t>>& xs;
  const std::vector<bool>& mask;

  std::string label(std::size_t i) const {
    const std::size_t per_vector = 4 * xs.size();
    return i < per_vector ? "form " + std::to_string(i % 4) + " vector " +
                                std::to_string(i / 4)
                          : "block lane " + std::to_string(i - per_vector);
  }

  std::vector<SparseVec<value_t>> run(ThreadPool& pool, int reps) const {
    SpmspvWorkspace<value_t> ws;
    SpmspvWorkspace<value_t> block_ws;
    SemiringOperator<PlusTimes<value_t>> sop(a, 16, 2, &pool);
    std::vector<TileVector<value_t>> xts;
    for (const SparseVec<value_t>& x : xs) {
      xts.push_back(TileVector<value_t>::from_sparse(x, 16));
    }
    const TileVectorBlock<value_t> xb =
        TileVectorBlock<value_t>::from_tiled(xts, &pool);
    std::vector<SparseVec<value_t>> first;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<SparseVec<value_t>> out;
      for (std::size_t v = 0; v < xs.size(); ++v) {
        out.push_back(tile_spmspv(tiled, xts[v], ws, &pool));
        out.push_back(tile_spmspv_csc(tiled_t, xts[v], ws, &pool));
        out.push_back(
            tile_spmspv_masked(tiled, xts[v], mask, true, ws, &pool));
        out.push_back(sop.multiply(xs[v]));
      }
      for (SparseVec<value_t>& y : tile_spmspm(tiled, xb, block_ws, &pool)) {
        out.push_back(std::move(y));
      }
      if (rep == 0) {
        first = std::move(out);
        continue;
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(out[i], first[i]))
            << "repeat " << rep << " differs, " << label(i);
      }
    }
    return first;
  }
};

// The apps on the block engine: betweenness (float path counts) and the
// tiled multi-source BFS, `reps` times over on one pool.
struct AppRunner {
  const Csr<value_t>& a;
  const std::vector<index_t>& sources;

  std::pair<std::vector<double>, MsBfsResult> run(ThreadPool& pool,
                                                  int reps) const {
    std::pair<std::vector<double>, MsBfsResult> first;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<double> bc =
          betweenness_centrality(a, sources, false, {}, &pool);
      MsBfsResult bfs = ms_bfs_tiled(a, sources, {}, &pool);
      if (rep == 0) {
        first = {std::move(bc), std::move(bfs)};
        continue;
      }
      EXPECT_TRUE(bitwise_equal(bc, first.first))
          << "repeat " << rep << " differs, betweenness";
      EXPECT_EQ(bfs.levels, first.second.levels)
          << "repeat " << rep << " differs, ms_bfs_tiled";
    }
    return first;
  }
};

// Every floating-point sum has one order: the CSR, CSC, masked, semiring
// and block forms, betweenness and the tiled multi-source BFS give bitwise
// the 1-thread result on pools of 2, 4 and 8, on a 2-shard pool and on
// every repeat through one workspace, and the forms give it again on the
// same matrix mapped from a tile file. web-small has extracted entries, so
// every side pass runs, and hub rows collect products from many x tiles.
TEST(CscMerge, EveryFormIsBitwiseDeterministic) {
  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("web-small"));
  const TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  const TileMatrix<value_t> tiled_t =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  ASSERT_GT(tiled.extracted.nnz(), 0);
  ASSERT_GT(tiled_t.extracted.nnz(), 0);
  std::vector<SparseVec<value_t>> xs;
  for (const double sparsity : {1e-1, 1e-2, 1e-3}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      xs.push_back(gen_sparse_vector(a.cols, sparsity, 900 + seed));
    }
  }
  std::vector<bool> mask(a.rows);
  for (index_t r = 0; r < a.rows; ++r) mask[r] = r % 3 == 0;
  const FormRunner runner{a, tiled, tiled_t, xs, mask};
  std::vector<index_t> sources;
  for (index_t s = 0; s < 12; ++s) sources.push_back(s * (a.rows / 12));
  const AppRunner apps{a, sources};

  ThreadPool serial(1);
  const std::vector<SparseVec<value_t>> expect = runner.run(serial, 1);
  for (std::size_t v = 0; v < xs.size(); ++v) {
    const SparseVec<value_t> ref = spmspv_rowwise_reference(a, xs[v]);
    ASSERT_TRUE(approx_equal(expect[4 * v], ref)) << "vector " << v;
    ASSERT_TRUE(approx_equal(expect[4 * xs.size() + v], ref))
        << "block lane " << v;
  }
  const auto expect_apps = apps.run(serial, 1);
  const auto check_forms = [&](ThreadPool& pool, int reps,
                               const std::string& what,
                               const FormRunner& forms) {
    const std::vector<SparseVec<value_t>> got = forms.run(pool, reps);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(got[i], expect[i]))
          << what << ": " << forms.label(i);
    }
  };
  const auto check = [&](ThreadPool& pool, int reps, const std::string& what) {
    check_forms(pool, reps, what, runner);
    const auto got_apps = apps.run(pool, reps);
    EXPECT_TRUE(bitwise_equal(got_apps.first, expect_apps.first))
        << what << ": betweenness";
    EXPECT_EQ(got_apps.second.levels, expect_apps.second.levels)
        << what << ": ms_bfs_tiled";
  };
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    check(pool, 1, std::to_string(threads) + " threads");
  }
  ThreadPool sharded(4);
  sharded.configure_shards(2, false);
  check(sharded, 1, "4 threads, 2 shards");
  ThreadPool pool(4);
  check(pool, 8, "4 threads, 8 repeats");

  // Owned vs mapped: the same matrices as views into a tile file.
  const std::string path = ::testing::TempDir() + "csc_merge_web_small.ttlf";
  write_tile_matrix_file_v2(path, tiled, &tiled_t);
  const MappedTileMatrix mapped = map_tile_matrix_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(mapped.has_transpose);
  const FormRunner mapped_runner{a, mapped.tiled, mapped.tiled_t, xs, mask};
  check_forms(pool, 1, "mapped, 4 threads", mapped_runner);
}

// Tall-thin transpose: many active tile rows of Aᵀ all scatter into the
// same few output tiles — the worst case for the old atomic scheme and
// the maximum-contention case for the bucket merge.
TEST(CscMerge, ManyColumnsFewOutputTilesAllPoolSizes) {
  const index_t rows = 64;     // 4 output tiles at nt = 16
  const index_t cols = 2048;   // 128 active tile rows of At
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(rows, cols, 0.05, 42));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  const SparseVec<value_t> x = gen_sparse_vector(cols, 0.8, 7);
  const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  const SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    SpmspvWorkspace<value_t> ws;
    for (int rep = 0; rep < 8; ++rep) {
      const SparseVec<value_t> y = tile_spmspv_csc(at, xt, ws, &pool);
      ASSERT_TRUE(approx_equal(y, expect))
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

// The workspace invariant the kernel relies on: between calls every range
// bucket is empty, every slot map entry is kEmptyTile and every bitmap word
// is zero, so a stale block, slot or bit from a racy or skipped reset would
// poison the next multiply. Alternating two different vectors on one
// workspace catches exactly that.
TEST(CscMerge, WorkspaceBucketsAreCleanBetweenCalls) {
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.03, 11));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 32, 2);
  ThreadPool pool(4);
  SpmspvWorkspace<value_t> ws;
  for (int rep = 0; rep < 6; ++rep) {
    const SparseVec<value_t> x =
        gen_sparse_vector(300, rep % 2 ? 0.5 : 0.02, 100 + rep);
    const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 32);
    ASSERT_TRUE(
        approx_equal(tile_spmspv_csc(at, xt, ws, &pool),
                     spmspv_rowwise_reference(a, x)))
        << "rep=" << rep;
    for (const auto& vals : ws.priv_vals) ASSERT_TRUE(vals.empty());
    for (const index_t slot : ws.priv_slot) ASSERT_EQ(slot, kEmptyTile);
    for (const std::uint64_t word : ws.priv_bits) ASSERT_EQ(word, 0u);
  }
}

// The merge walks the ranges' bitmaps a 64-tile word at a time. Here the
// output has 131 tiles (two full words and a partial third, whose last
// tile is itself partial), and x reaches the last tile on both sides.
// Every tile of A is stored (no extraction), so every active x tile weighs
// the same: x in the last tile alone is cut into 1 range, and x in the
// last 128 tiles into the full 16. Each must give the reference and, on
// every pool, bitwise the 1-thread result.
TEST(CscMerge, PartialLastBitmapWord) {
  const index_t n = 131 * 16 - 8;
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(n, n, 0.05, 61));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 0);
  ASSERT_EQ(at.tile_cols, 131);
  ASSERT_EQ(at.num_tiles(), 131 * 131);

  SparseVec<value_t> last_tile(n);
  for (index_t i = n - 8; i < n; ++i) last_tile.push(i, 1.0 + i % 3);
  SparseVec<value_t> spread(n);
  for (index_t t = 3; t < 131; ++t) spread.push(t * 16 + t % 8, 0.5 + t % 4);

  for (const auto& [x, ranges] :
       {std::pair{last_tile, 1}, std::pair{spread, 16}}) {
    const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
    const SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);
    ASSERT_FALSE(expect.idx.empty());
    ASSERT_EQ(expect.idx.back() / 16, 130) << "output misses the last tile";
    ThreadPool serial(1);
    SpmspvWorkspace<value_t> ws;
    const SparseVec<value_t> first = tile_spmspv_csc(at, xt, ws, &serial);
    // range_ptr keeps the last multiply's cut.
    ASSERT_EQ(static_cast<int>(ws.range_ptr.size()) - 1, ranges);
    ASSERT_TRUE(approx_equal(first, expect)) << ranges << " ranges";
    for (const int threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      EXPECT_TRUE(bitwise_equal(tile_spmspv_csc(at, xt, ws, &pool), first))
          << ranges << " ranges, " << threads << " threads";
    }
  }
}

// Concurrent multiplies from two submitting threads, each with its own
// pool and workspace (the pool is single-submitter by design): the
// thread_local slot bookkeeping and the privatized buckets of the two
// calls must stay fully independent — TSan flags any cross-talk.
TEST(CscMerge, ConcurrentCallsOnSeparatePoolsStayIndependent) {
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(400, 400, 0.04, 5));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  const SparseVec<value_t> x1 = gen_sparse_vector(400, 0.3, 21);
  const SparseVec<value_t> x2 = gen_sparse_vector(400, 0.3, 22);
  const TileVector<value_t> xt1 = TileVector<value_t>::from_sparse(x1, 16);
  const TileVector<value_t> xt2 = TileVector<value_t>::from_sparse(x2, 16);
  const SparseVec<value_t> e1 = spmspv_rowwise_reference(a, x1);
  const SparseVec<value_t> e2 = spmspv_rowwise_reference(a, x2);

  ThreadPool pool_a(4);
  ThreadPool pool_b(4);
  for (int rep = 0; rep < 4; ++rep) {
    SparseVec<value_t> y1, y2;
    std::thread t1([&] {
      SpmspvWorkspace<value_t> ws;
      y1 = tile_spmspv_csc(at, xt1, ws, &pool_a);
    });
    std::thread t2([&] {
      SpmspvWorkspace<value_t> ws;
      y2 = tile_spmspv_csc(at, xt2, ws, &pool_b);
    });
    t1.join();
    t2.join();
    ASSERT_TRUE(approx_equal(y1, e1)) << "rep=" << rep;
    ASSERT_TRUE(approx_equal(y2, e2)) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace tilespmspv
