// Differential tests for the block-of-k SpMSpM engine: every lane of
// tile_spmspm must match an independent tile_spmspv over the same matrix
// and vector, across tile sizes, lane counts, extraction settings, and
// workspace reuse.
#include <gtest/gtest.h>

#include "core/spmspv_reference.hpp"
#include "core/tile_spmspm.hpp"
#include "core/tile_spmspv.hpp"
#include "core/tile_spmspv_batch.hpp"
#include "gen/banded.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/vector_gen.hpp"
#include "tile/tile_vector_block.hpp"

namespace tilespmspv {
namespace {

class SpmspmSweep
    : public ::testing::TestWithParam<std::tuple<index_t, int, index_t>> {};

TEST_P(SpmspmSweep, EveryLaneMatchesSingleVectorKernel) {
  const auto [nt, k, extract] = GetParam();
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(700, 600, 0.012, 4201));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, nt, extract);
  ThreadPool pool(4);

  std::vector<TileVector<value_t>> xs;
  std::vector<SparseVec<value_t>> raw;
  for (int v = 0; v < k; ++v) {
    // Mix dense-ish and nearly empty lanes so both the broadcast and the
    // per-set-bit inner paths get exercised within one block.
    const double sparsity = (v % 3 == 0) ? 0.08 : 0.002;
    raw.push_back(gen_sparse_vector(600, sparsity, 4300 + v));
    xs.push_back(TileVector<value_t>::from_sparse(raw.back(), nt));
  }
  const TileVectorBlock<value_t> xb =
      TileVectorBlock<value_t>::from_tiled(xs, &pool);

  SpmspvWorkspace<value_t> ws;
  const auto ys = tile_spmspm(tiled, xb, ws, &pool);
  ASSERT_EQ(ys.size(), static_cast<std::size_t>(k));
  for (int v = 0; v < k; ++v) {
    EXPECT_TRUE(approx_equal(ys[v], tile_spmspv(tiled, xs[v], &pool)))
        << "lane " << v << " nt " << nt;
  }

  // Workspace reuse: the gather must have restored the all-zero invariant,
  // so a second multiply through the same workspace is identical.
  const auto ys2 = tile_spmspm(tiled, xb, ws, &pool);
  for (int v = 0; v < k; ++v) {
    EXPECT_EQ(ys2[v].idx, ys[v].idx) << "lane " << v;
    EXPECT_EQ(ys2[v].vals, ys[v].vals) << "lane " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmspmSweep,
    ::testing::Combine(::testing::Values<index_t>(16, 32, 64),
                       ::testing::Values(1, 3, 8, 64),
                       ::testing::Values<index_t>(0, 2)));

// At one lane the block engine is the CSR form: the same walk, the same run
// kernel, the same side pass and the same gather, so a one-lane block is
// bitwise tile_spmspv's result on every pool. The tall matrix has more than
// 4096 tile rows, so both gather on more than one range per lane.
TEST(SpmspmBlock, OneLaneIsTheCsrForm) {
  struct Case {
    index_t rows, cols;
    double density;
    std::uint64_t seed;
  };
  for (const Case c :
       {Case{700, 600, 0.012, 4201}, Case{66000, 2000, 0.002, 4202}}) {
    const Csr<value_t> a = Csr<value_t>::from_coo(
        gen_erdos_renyi(c.rows, c.cols, c.density, c.seed));
    const TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
    ASSERT_GT(tiled.extracted.nnz(), 0);
    for (const double sparsity : {0.2, 0.05, 0.01, 0.002}) {
      const auto xt = TileVector<value_t>::from_sparse(
          gen_sparse_vector(c.cols, sparsity, 4250), 16);
      const auto xb = TileVectorBlock<value_t>::from_tiled(&xt, 1);
      for (const std::size_t threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        const SparseVec<value_t> y = tile_spmspv(tiled, xt, &pool);
        const auto ys = tile_spmspm(tiled, xb, &pool);
        ASSERT_EQ(ys.size(), 1u);
        EXPECT_EQ(ys[0].idx, y.idx)
            << c.rows << " rows, sparsity " << sparsity << ", " << threads
            << " threads";
        EXPECT_EQ(ys[0].vals, y.vals)
            << c.rows << " rows, sparsity " << sparsity << ", " << threads
            << " threads";
      }
    }
  }
}

// The block's lanes must agree on their length and tile size, and a block
// holds at most kMaxLanes of them; both are checked in every build, before
// any lane's slot map is read (a 40-long lane in a 600-long block was read
// 35 tiles past its slot map).
TEST(SpmspmBlock, FromTiledRejectsMismatchedLanes) {
  const std::vector<SparseVec<value_t>> mixed = {
      gen_sparse_vector(600, 0.05, 31), gen_sparse_vector(40, 0.2, 32)};
  EXPECT_THROW(TileVectorBlock<value_t>::from_sparse(mixed, 16),
               std::invalid_argument);
  const std::vector<TileVector<value_t>> tiled = {
      TileVector<value_t>::from_sparse(mixed[0], 16),
      TileVector<value_t>::from_sparse(mixed[1], 16)};
  EXPECT_THROW(TileVectorBlock<value_t>::from_tiled(tiled),
               std::invalid_argument);
  const std::vector<TileVector<value_t>> wrong_nt = {
      TileVector<value_t>::from_sparse(mixed[0], 16),
      TileVector<value_t>::from_sparse(mixed[0], 32)};
  EXPECT_THROW(TileVectorBlock<value_t>::from_tiled(wrong_nt),
               std::invalid_argument);
  const std::vector<SparseVec<value_t>> too_many(
      TileVectorBlock<value_t>::kMaxLanes + 1, SparseVec<value_t>(100));
  EXPECT_THROW(TileVectorBlock<value_t>::from_sparse(too_many, 16),
               std::invalid_argument);
  // kMaxLanes lanes still fit.
  const std::vector<SparseVec<value_t>> full(
      TileVectorBlock<value_t>::kMaxLanes, SparseVec<value_t>(100));
  EXPECT_EQ(TileVectorBlock<value_t>::from_sparse(full, 16).k,
            TileVectorBlock<value_t>::kMaxLanes);
}

TEST(SpmspmBlock, FromSparseRoundTripsAndValidates) {
  std::vector<SparseVec<value_t>> xs;
  for (int v = 0; v < 9; ++v) {
    xs.push_back(gen_sparse_vector(333, v == 4 ? 0.0 : 0.07, 990 + v));
  }
  ThreadPool pool(3);
  const auto b = TileVectorBlock<value_t>::from_sparse(xs, 16, &pool);
  EXPECT_EQ(b.k, 9);
  EXPECT_EQ(b.n, 333);
  EXPECT_TRUE(validate_tile_vector_block(b).ok()) << "invalid block";
  for (int v = 0; v < 9; ++v) {
    const SparseVec<value_t> back = b.to_sparse(v);
    EXPECT_EQ(back.idx, xs[v].idx) << "lane " << v;
    EXPECT_EQ(back.vals, xs[v].vals) << "lane " << v;
  }
}

TEST(SpmspmBlock, ActiveWordsAreLaneUnions) {
  // Two lanes with disjoint tiles: every slot's word must carry exactly
  // the lanes that own it, and the interleaved payload keeps zeros in the
  // other lane.
  SparseVec<value_t> x0(64), x1(64);
  x0.push(3, 1.5);   // tile 0 only
  x1.push(40, 2.5);  // tile 2 only
  const auto b =
      TileVectorBlock<value_t>::from_sparse({x0, x1}, 16, nullptr);
  ASSERT_EQ(b.num_tiles(), 4);
  EXPECT_EQ(b.active[0], std::uint64_t{1});
  EXPECT_EQ(b.active[1], std::uint64_t{0});
  EXPECT_EQ(b.active[2], std::uint64_t{2});
  EXPECT_EQ(b.at(0, 3), 1.5);
  EXPECT_EQ(b.at(1, 3), 0.0);
  EXPECT_EQ(b.at(1, 40), 2.5);
  EXPECT_EQ(b.at(0, 40), 0.0);
}

TEST(SpmspmBatchWrapper, ChunksBeyondMaxLanes) {
  // 70 vectors force two engine blocks (64 + 6) through the wrapper; each
  // output still matches the reference.
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.02, 4400));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  std::vector<SparseVec<value_t>> xs;
  for (int v = 0; v < 70; ++v) {
    xs.push_back(gen_sparse_vector(300, 0.03, 4500 + v));
  }
  ThreadPool pool(4);
  const auto ys = tile_spmspv_batch(tiled, xs, &pool);
  ASSERT_EQ(ys.size(), 70u);
  for (int v = 0; v < 70; ++v) {
    EXPECT_TRUE(approx_equal(ys[v], spmspv_rowwise_reference(a, xs[v])))
        << "vector " << v;
  }
}

TEST(SpmspmBlock, BandedMatrixRunsPath) {
  // Banded matrices build run lists (kRunFlat/kRunDispatch), covering the
  // engine's run-walking entry iteration.
  BandedParams bp;
  bp.n = 512;
  Csr<value_t> a = Csr<value_t>::from_coo(gen_banded(bp, 4600));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 32, 2);
  ThreadPool pool(4);
  std::vector<TileVector<value_t>> xs;
  for (int v = 0; v < 5; ++v) {
    xs.push_back(TileVector<value_t>::from_sparse(
        gen_sparse_vector(512, 0.05, 4700 + v), 32));
  }
  const auto xb = TileVectorBlock<value_t>::from_tiled(xs, &pool);
  const auto ys = tile_spmspm(tiled, xb, &pool);
  for (int v = 0; v < 5; ++v) {
    EXPECT_TRUE(approx_equal(ys[v], tile_spmspv(tiled, xs[v], &pool)))
        << "lane " << v;
  }
}

TEST(SpmspmBlock, EmptyBlock) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(100, 100, 0.02, 4800));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16);
  const TileVectorBlock<value_t> xb;
  EXPECT_TRUE(tile_spmspm(tiled, xb).empty());
}

// A block whose lanes do not fit the matrix is refused before any phase
// reads it: a 40-long block on a 600-column matrix would index the slot
// map and lane words far past their 3 tiles.
TEST(SpmspmBlock, RejectsOperandOfWrongShape) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(700, 600, 0.012, 4201));
  const TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  ThreadPool pool(4);
  const std::vector<SparseVec<value_t>> short_xs = {
      gen_sparse_vector(40, 0.2, 24), gen_sparse_vector(40, 0.2, 25)};
  const auto short_x = TileVectorBlock<value_t>::from_sparse(short_xs, 16);
  SpmspvWorkspace<value_t> ws;
  EXPECT_THROW(tile_spmspm(tiled, short_x, ws, &pool), std::invalid_argument);
  EXPECT_THROW(tile_spmspm(tiled, short_x), std::invalid_argument);
  const std::vector<SparseVec<value_t>> xs = {gen_sparse_vector(600, 0.05, 26)};
  const auto wrong_nt = TileVectorBlock<value_t>::from_sparse(xs, 32);
  EXPECT_THROW(tile_spmspm(tiled, wrong_nt, ws, &pool), std::invalid_argument);
  // The refusals left the workspace clean: a fitting block still matches.
  const auto xb = TileVectorBlock<value_t>::from_sparse(xs, 16);
  EXPECT_TRUE(approx_equal(tile_spmspm(tiled, xb, ws, &pool)[0],
                           spmspv_rowwise_reference(a, xs[0])));
}

TEST(SpmspmBlock, AllEmptyLanes) {
  // k > 0 but every lane is empty: the block has zero kept tiles and the
  // engine must return k empty outputs without touching any phase scratch.
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(200, 200, 0.02, 4900));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  ThreadPool pool(4);
  std::vector<SparseVec<value_t>> xs(7, SparseVec<value_t>(200));
  const auto xb = TileVectorBlock<value_t>::from_sparse(xs, 16, &pool);
  EXPECT_TRUE(validate_tile_vector_block(xb).ok());
  EXPECT_EQ(xb.num_nonempty_tiles(), 0);
  const auto ys = tile_spmspm(tiled, xb, &pool);
  ASSERT_EQ(ys.size(), 7u);
  for (const auto& y : ys) {
    EXPECT_EQ(y.n, 200);
    EXPECT_EQ(y.nnz(), 0);
  }
}

TEST(SpmspmBlock, DuplicateUnsortedFromSparseMatchesSanitizedLane) {
  // from_sparse must tolerate input below SparseVec's invariant: unsorted
  // indices, duplicates (later entries win, including a zero overwrite
  // that kills the nonzero), and still produce a validator-clean tiled
  // vector whose slot numbering is in tile order. The engine's output over
  // the dirty lane must match the per-vector kernel over the sanitized
  // equivalent.
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(120, 96, 0.05, 5000));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);

  SparseVec<value_t> dirty(96);
  dirty.push(80, 7.0);   // tile 5 first: unsorted input
  dirty.push(3, 1.0);
  dirty.push(17, 2.0);
  dirty.push(3, 4.0);    // duplicate of 3: last write wins
  dirty.push(40, 5.0);
  dirty.push(40, 0.0);   // duplicate zero overwrite: nonzero disappears
  SparseVec<value_t> clean(96);
  clean.push(3, 4.0);
  clean.push(17, 2.0);
  clean.push(80, 7.0);

  const auto xt = TileVector<value_t>::from_sparse(dirty, 16);
  EXPECT_TRUE(validate_tile_vector(xt).ok());
  EXPECT_EQ(xt.nnz, 3);
  // Tile-order slot numbering despite the out-of-order input.
  EXPECT_EQ(xt.x_ptr[0], 0);
  EXPECT_EQ(xt.x_ptr[1], 1);
  EXPECT_EQ(xt.x_ptr[2], 2);
  EXPECT_EQ(xt.x_ptr[5], 3);
  const SparseVec<value_t> back = xt.to_sparse();
  EXPECT_EQ(back.idx, clean.idx);
  EXPECT_EQ(back.vals, clean.vals);

  ThreadPool pool(3);
  const auto xb =
      TileVectorBlock<value_t>::from_sparse({dirty, clean}, 16, &pool);
  EXPECT_TRUE(validate_tile_vector_block(xb).ok());
  const auto ys = tile_spmspm(tiled, xb, &pool);
  ASSERT_EQ(ys.size(), 2u);
  const SparseVec<value_t> ref = tile_spmspv(
      tiled, TileVector<value_t>::from_sparse(clean, 16), &pool);
  EXPECT_TRUE(approx_equal(ys[0], ref)) << "dirty lane";
  EXPECT_TRUE(approx_equal(ys[1], ref)) << "clean lane";
}

TEST(SpmspmBlock, ZeroDimensionMatrix) {
  // n == 0 on both sides: zero tile grid, zero lanes' worth of payload.
  const Csr<value_t> a = Csr<value_t>::from_coo(Coo<value_t>(0, 0));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  std::vector<SparseVec<value_t>> xs(3, SparseVec<value_t>(0));
  const auto xb = TileVectorBlock<value_t>::from_sparse(xs, 16, nullptr);
  EXPECT_TRUE(validate_tile_vector_block(xb).ok());
  const auto ys = tile_spmspm(tiled, xb);
  ASSERT_EQ(ys.size(), 3u);
  for (const auto& y : ys) {
    EXPECT_EQ(y.n, 0);
    EXPECT_EQ(y.nnz(), 0);
  }
}

TEST(SpmspmBlock, ForeignPoolWorkerInvocationStaysInBounds) {
  // Regression for the off-pool slot bug: a worker of a larger pool
  // invoking the engine with a 1-thread pool used to index the workspace's
  // per-slot accumulators with its foreign slot (out of bounds for the
  // small pool). The dispatch now rebinds slots, so the call must both
  // stay in bounds (assertion-backed in debug builds) and produce the same
  // answer as a plain top-level call. tile_spmspv runs the same walk with
  // the same per-slot accumulators, so it is called the same way.
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(400, 400, 0.02, 5100));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  std::vector<TileVector<value_t>> xs;
  for (int v = 0; v < 8; ++v) {
    xs.push_back(TileVector<value_t>::from_sparse(
        gen_sparse_vector(400, 0.05, 5200 + v), 16));
  }
  const auto xb = TileVectorBlock<value_t>::from_tiled(xs, nullptr);
  const auto expect = tile_spmspm(tiled, xb);
  const SparseVec<value_t> expect_csr = tile_spmspv(tiled, xs[0]);

  ThreadPool outer(4);
  ThreadPool inner(1);
  std::vector<std::vector<SparseVec<value_t>>> got(
      static_cast<std::size_t>(outer.size()));
  std::vector<SparseVec<value_t>> got_csr(
      static_cast<std::size_t>(outer.size()));
  parallel_for(
      static_cast<index_t>(outer.size()),
      [&](index_t i) {
        // Every outer slot (workers and caller) runs the engine through the
        // foreign 1-thread pool.
        got[static_cast<std::size_t>(i)] = tile_spmspm(tiled, xb, &inner);
        got_csr[static_cast<std::size_t>(i)] =
            tile_spmspv(tiled, xs[0], &inner);
      },
      &outer, /*chunk=*/1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), 8u) << "outer slot " << i;
    for (int v = 0; v < 8; ++v) {
      EXPECT_TRUE(approx_equal(got[i][static_cast<std::size_t>(v)],
                               expect[static_cast<std::size_t>(v)]))
          << "outer slot " << i << " lane " << v;
    }
    EXPECT_EQ(got_csr[i].idx, expect_csr.idx) << "outer slot " << i;
    EXPECT_EQ(got_csr[i].vals, expect_csr.vals) << "outer slot " << i;
  }
}

}  // namespace
}  // namespace tilespmspv
