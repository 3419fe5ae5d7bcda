// Correctness of the TileSpMSpV numeric kernel against both reference
// algorithms (paper Alg. 1 & 2), swept over matrix shape, density, tile
// size, extraction threshold, vector sparsity and pool size.
#include <gtest/gtest.h>

#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/tile_spmspv.hpp"
#include "formats/csc.hpp"
#include "gen/banded.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/vector_gen.hpp"
#include "util/prng.hpp"

namespace tilespmspv {
namespace {

TEST(SpmspvReference, PaperFigure1Example) {
  // 6x6 matrix times a 2-nonzero vector -> 2-nonzero result (paper Fig. 1
  // structure: the multiply touches only columns with active x entries).
  Coo<value_t> coo(6, 6);
  coo.push(0, 1, 2.0);
  coo.push(1, 3, 3.0);
  coo.push(2, 0, 4.0);
  coo.push(4, 1, 5.0);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  SparseVec<value_t> x(6);
  x.push(1, 10.0);
  x.push(5, 1.0);  // column 5 is empty
  SparseVec<value_t> y = spmspv_rowwise_reference(a, x);
  ASSERT_EQ(y.nnz(), 2);
  EXPECT_EQ(y.idx, (std::vector<index_t>{0, 4}));
  EXPECT_DOUBLE_EQ(y.vals[0], 20.0);
  EXPECT_DOUBLE_EQ(y.vals[1], 50.0);
}

TEST(SpmspvReference, RowwiseAndColwiseAgree) {
  Coo<value_t> coo = gen_erdos_renyi(400, 300, 0.02, 71);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  Csc<value_t> c = Csc<value_t>::from_csr(a);
  SparseVec<value_t> x = gen_sparse_vector(300, 0.05, 2);
  EXPECT_TRUE(approx_equal(spmspv_rowwise_reference(a, x),
                           spmspv_colwise_reference(c, x)));
}

struct SpmspvCase {
  index_t rows, cols;
  double mat_density;
  index_t nt;
  index_t extract;
  double vec_sparsity;
  std::size_t pool_threads;
};

class TileSpmspvSweep : public ::testing::TestWithParam<SpmspvCase> {};

TEST_P(TileSpmspvSweep, MatchesReference) {
  const auto p = GetParam();
  Coo<value_t> coo =
      gen_erdos_renyi(p.rows, p.cols, p.mat_density, 73 + p.rows);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  TileMatrix<value_t> tiled =
      TileMatrix<value_t>::from_csr(a, p.nt, p.extract);
  SparseVec<value_t> x = gen_sparse_vector(p.cols, p.vec_sparsity, 5);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, p.nt);
  ThreadPool pool(p.pool_threads);
  SparseVec<value_t> y = tile_spmspv(tiled, xt, &pool);
  SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);
  EXPECT_TRUE(approx_equal(y, expect))
      << "rows=" << p.rows << " cols=" << p.cols << " nt=" << p.nt
      << " extract=" << p.extract << " sp=" << p.vec_sparsity;
}

std::vector<SpmspvCase> sweep_cases() {
  std::vector<SpmspvCase> cases;
  for (index_t nt : {16, 32, 64}) {
    for (index_t extract : {0, 2}) {
      for (double sp : {0.001, 0.01, 0.2}) {
        cases.push_back({500, 400, 0.01, nt, extract, sp, 4});
      }
    }
  }
  // Shape edge cases.
  cases.push_back({1, 1, 1.0, 16, 0, 1.0, 1});
  cases.push_back({17, 1000, 0.02, 16, 2, 0.05, 2});
  cases.push_back({1000, 17, 0.02, 32, 2, 0.3, 2});
  cases.push_back({64, 64, 0.5, 16, 0, 0.5, 8});
  cases.push_back({2048, 2048, 0.002, 64, 4, 0.0005, 4});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TileSpmspvSweep,
                         ::testing::ValuesIn(sweep_cases()));

TEST(TileSpmspv, EmptyVectorGivesEmptyResult) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(100, 100, 0.05, 79));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16);
  SparseVec<value_t> x(100);  // no nonzeros
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  SparseVec<value_t> y = tile_spmspv(tiled, xt);
  EXPECT_EQ(y.nnz(), 0);
}

TEST(TileSpmspv, EmptyMatrixGivesEmptyResult) {
  Csr<value_t> a(50, 50);
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16);
  SparseVec<value_t> x = gen_sparse_vector(50, 0.5, 3);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  EXPECT_EQ(tile_spmspv(tiled, xt).nnz(), 0);
}

TEST(TileSpmspv, WorkspaceReuseIsClean) {
  // Two different multiplies through the same workspace must not leak
  // state between calls (the all-zero invariant).
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.02, 83));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  SpmspvWorkspace<value_t> ws;
  SparseVec<value_t> x1 = gen_sparse_vector(300, 0.2, 11);
  SparseVec<value_t> x2 = gen_sparse_vector(300, 0.01, 12);
  TileVector<value_t> xt1 = TileVector<value_t>::from_sparse(x1, 16);
  TileVector<value_t> xt2 = TileVector<value_t>::from_sparse(x2, 16);
  (void)tile_spmspv(tiled, xt1, ws);
  SparseVec<value_t> y2 = tile_spmspv(tiled, xt2, ws);
  EXPECT_TRUE(approx_equal(y2, spmspv_rowwise_reference(a, x2)));
  // Workspace invariant: everything back to zero.
  for (const auto v : ws.y) EXPECT_EQ(v, 0.0);
  for (const auto f : ws.row_mask) EXPECT_EQ(f, 0u);
}

TEST(TileSpmspv, ExtractedPartContributes) {
  // A matrix that is entirely extracted (huge threshold) must still give
  // the right answer through the COO side path alone.
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(200, 200, 0.01, 89));
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 1 << 20);
  ASSERT_EQ(tiled.num_tiles(), 0);
  SparseVec<value_t> x = gen_sparse_vector(200, 0.1, 13);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  EXPECT_TRUE(
      approx_equal(tile_spmspv(tiled, xt), spmspv_rowwise_reference(a, x)));
}

class TileSpmspvCscSweep : public ::testing::TestWithParam<SpmspvCase> {};

TEST_P(TileSpmspvCscSweep, MatchesReference) {
  const auto p = GetParam();
  Coo<value_t> coo =
      gen_erdos_renyi(p.rows, p.cols, p.mat_density, 173 + p.rows);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  // The CSC kernel consumes the tiled transpose.
  TileMatrix<value_t> tiled_t =
      TileMatrix<value_t>::from_csr(a.transpose(), p.nt, p.extract);
  SparseVec<value_t> x = gen_sparse_vector(p.cols, p.vec_sparsity, 6);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, p.nt);
  ThreadPool pool(p.pool_threads);
  SparseVec<value_t> y = tile_spmspv_csc(tiled_t, xt, &pool);
  EXPECT_TRUE(approx_equal(y, spmspv_rowwise_reference(a, x)))
      << "rows=" << p.rows << " cols=" << p.cols << " nt=" << p.nt
      << " extract=" << p.extract << " sp=" << p.vec_sparsity;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TileSpmspvCscSweep,
                         ::testing::ValuesIn(sweep_cases()));

TEST(TileSpmspvCsc, FullyExtractedMatrix) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(150, 150, 0.01, 181));
  TileMatrix<value_t> tiled_t =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 1 << 20);
  SparseVec<value_t> x = gen_sparse_vector(150, 0.1, 7);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  EXPECT_TRUE(approx_equal(tile_spmspv_csc(tiled_t, xt),
                           spmspv_rowwise_reference(a, x)));
}

TEST(SpmspvOperator, AutoSelectsCscForVerySparseVectors) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(4000, 4000, 0.005, 191));
  SpmspvOperator<value_t> op(a);
  const SparseVec<value_t> sparse = gen_sparse_vector(4000, 0.0005, 8);
  const SparseVec<value_t> dense = gen_sparse_vector(4000, 0.2, 9);
  EXPECT_EQ(op.select(TileVector<value_t>::from_sparse(sparse, 16)),
            SpmspvKernel::kCsc);
  EXPECT_EQ(op.select(TileVector<value_t>::from_sparse(dense, 16)),
            SpmspvKernel::kCsr);
  // Both paths give the reference result through the same operator.
  EXPECT_TRUE(
      approx_equal(op.multiply(sparse), spmspv_rowwise_reference(a, sparse)));
  EXPECT_TRUE(
      approx_equal(op.multiply(dense), spmspv_rowwise_reference(a, dense)));
}

TEST(SpmspvOperator, MaskedMultiplyMatchesFilterThenMultiply) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(600, 500, 0.02, 195));
  SpmspvOperator<value_t> op(a);
  SparseVec<value_t> x = gen_sparse_vector(500, 0.05, 19);
  // Random structural mask over the output space.
  Prng rng(20);
  std::vector<bool> m(600);
  for (index_t r = 0; r < 600; ++r) m[r] = rng.next_bool(0.5);

  const SparseVec<value_t> full = spmspv_rowwise_reference(a, x);
  for (bool complement : {false, true}) {
    const SparseVec<value_t> got = op.multiply_masked(x, m, complement);
    SparseVec<value_t> expect(600);
    for (std::size_t k = 0; k < full.idx.size(); ++k) {
      if (m[full.idx[k]] != complement) {
        expect.push(full.idx[k], full.vals[k]);
      }
    }
    EXPECT_TRUE(approx_equal(got, expect)) << "complement=" << complement;
  }
}

TEST(SpmspvOperator, MaskedMultiplyAllMaskedGivesEmpty) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(200, 200, 0.05, 196));
  SpmspvOperator<value_t> op(a);
  SparseVec<value_t> x = gen_sparse_vector(200, 0.1, 21);
  const std::vector<bool> none(200, false);
  EXPECT_EQ(op.multiply_masked(x, none, false).nnz(), 0);
  // Workspace must still be clean for the next unmasked multiply.
  EXPECT_TRUE(approx_equal(op.multiply(x), spmspv_rowwise_reference(a, x)));
}

// A mask shorter than the output would have the gather read past the end
// of the std::vector<bool>; the length check must hold in Release builds
// too, and the rejected call must leave the workspace clean.
TEST(SpmspvOperator, MaskedMultiplyRejectsShortMask) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(300, 300, 0.03, 198));
  SpmspvOperator<value_t> op(a);
  SparseVec<value_t> x = gen_sparse_vector(300, 0.1, 22);
  const std::vector<bool> short_mask(299, true);
  EXPECT_THROW(op.multiply_masked(x, short_mask, false),
               std::invalid_argument);
  const std::vector<bool> all(300, true);
  EXPECT_TRUE(approx_equal(op.multiply_masked(x, all, false),
                           spmspv_rowwise_reference(a, x)));
  EXPECT_TRUE(approx_equal(op.multiply(x), spmspv_rowwise_reference(a, x)));
}

TEST(SpmspvOperator, AutoSelectsDenseSpmvForNearDenseVectors) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(2000, 2000, 0.005, 197));
  SpmspvOperator<value_t> op(a);
  const SparseVec<value_t> dense_x = gen_sparse_vector(2000, 0.5, 21);
  const TileVector<value_t> xt = TileVector<value_t>::from_sparse(dense_x, 16);
  EXPECT_EQ(op.select(xt), SpmspvKernel::kDenseSpmv);
  EXPECT_TRUE(approx_equal(op.multiply(dense_x),
                           spmspv_rowwise_reference(a, dense_x)));
}

TEST(SpmspvOperator, ThreeTierSelection) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(4000, 4000, 0.004, 198));
  SpmspvOperator<value_t> op(a);
  auto tier = [&](double sp) {
    return op.select(TileVector<value_t>::from_sparse(
        gen_sparse_vector(4000, sp, 22), 16));
  };
  EXPECT_EQ(tier(0.001), SpmspvKernel::kCsc);
  EXPECT_EQ(tier(0.05), SpmspvKernel::kCsr);
  EXPECT_EQ(tier(0.6), SpmspvKernel::kDenseSpmv);
}

// kAuto reads tile occupancy, not sparsity: at the same sparsity 0.02, a
// vector packed into a few tiles runs the vector-driven CSC form and one
// spread over a third of the tiles runs the CSR form.
TEST(SpmspvOperator, SelectsByTileOccupancy) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(4000, 4000, 0.004, 198));
  SpmspvOperator<value_t> op(a);
  SparseVec<value_t> clustered(4000), spread(4000);
  for (index_t i = 0; i < 80; ++i) {
    clustered.push(1600 + i, 1.0 + i % 5);
    spread.push(50 * i, 1.0 + i % 5);
  }
  const TileVector<value_t> xc = TileVector<value_t>::from_sparse(clustered, 16);
  const TileVector<value_t> xs = TileVector<value_t>::from_sparse(spread, 16);
  ASSERT_DOUBLE_EQ(xc.sparsity(), 0.02);
  ASSERT_DOUBLE_EQ(xs.sparsity(), 0.02);
  EXPECT_EQ(op.select(xc), SpmspvKernel::kCsc);
  EXPECT_EQ(op.select(xs), SpmspvKernel::kCsr);
  EXPECT_TRUE(approx_equal(op.multiply(clustered),
                           spmspv_rowwise_reference(a, clustered)));
  EXPECT_TRUE(
      approx_equal(op.multiply(spread), spmspv_rowwise_reference(a, spread)));
}

// An x of the wrong length would have the kernels index x_ptr past its
// end (the CSR form reads x_ptr[tile column of A]); every form rejects it
// in Release builds too, as does a tile list out of step with the slots,
// and the operator still multiplies correctly afterwards.
TEST(SpmspvOperator, RejectsOperandOfWrongShape) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(500, 600, 0.02, 200));
  const TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  const TileMatrix<value_t> tiled_t =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  SpmspvWorkspace<value_t> ws;
  const std::vector<bool> mask(500, true);
  const TileVector<value_t> short_x =
      TileVector<value_t>::from_sparse(gen_sparse_vector(40, 0.2, 24), 16);
  TileVector<value_t> stale =
      TileVector<value_t>::from_sparse(gen_sparse_vector(600, 0.05, 25), 16);
  stale.tiles.pop_back();
  for (const auto* x : std::vector<const TileVector<value_t>*>{&short_x, &stale}) {
    EXPECT_THROW(tile_spmspv(tiled, *x, ws), std::invalid_argument);
    EXPECT_THROW(tile_spmspv_masked(tiled, *x, mask, false, ws),
                 std::invalid_argument);
    EXPECT_THROW(tile_spmspv_csc(tiled_t, *x, ws), std::invalid_argument);
  }
  for (const SpmspvKernel k : {SpmspvKernel::kAuto, SpmspvKernel::kCsr,
                               SpmspvKernel::kCsc, SpmspvKernel::kDenseSpmv}) {
    SpmspvConfig cfg;
    cfg.kernel = k;
    SpmspvOperator<value_t> op(a, cfg);
    EXPECT_THROW(op.multiply(short_x), std::invalid_argument);
    const SparseVec<value_t> x = gen_sparse_vector(600, 0.05, 26);
    EXPECT_TRUE(approx_equal(op.multiply(x), spmspv_rowwise_reference(a, x)));
  }
}

TEST(SpmspvOperator, ForcedDenseSpmvMatchesReference) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(700, 600, 0.02, 199));
  SpmspvConfig cfg;
  cfg.kernel = SpmspvKernel::kDenseSpmv;
  SpmspvOperator<value_t> op(a, cfg);
  for (double sp : {0.001, 0.1, 0.9}) {
    SparseVec<value_t> x = gen_sparse_vector(600, sp, 23);
    EXPECT_TRUE(approx_equal(op.multiply(x), spmspv_rowwise_reference(a, x)))
        << sp;
  }
}

TEST(SpmspvOperator, ForcedKernelsAgree) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(1000, 800, 0.01, 193));
  SpmspvConfig csr_cfg, csc_cfg;
  csr_cfg.kernel = SpmspvKernel::kCsr;
  csc_cfg.kernel = SpmspvKernel::kCsc;
  SpmspvOperator<value_t> op_csr(a, csr_cfg);
  SpmspvOperator<value_t> op_csc(a, csc_cfg);
  for (double sp : {0.001, 0.05, 0.5}) {
    SparseVec<value_t> x = gen_sparse_vector(800, sp, 10);
    EXPECT_TRUE(approx_equal(op_csr.multiply(x), op_csc.multiply(x)))
        << "sp=" << sp;
  }
}

TEST(SpmspvOperator, EndToEnd) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(500, 500, 0.01, 97));
  SpmspvOperator<value_t> op(a);
  SparseVec<value_t> x = gen_sparse_vector(500, 0.02, 14);
  EXPECT_TRUE(approx_equal(op.multiply(x), spmspv_rowwise_reference(a, x)));
  // Repeated multiplies reuse internal state correctly.
  SparseVec<value_t> x2 = gen_sparse_vector(500, 0.3, 15);
  EXPECT_TRUE(approx_equal(op.multiply(x2), spmspv_rowwise_reference(a, x2)));
}

TEST(SpmspvOperator, BandedMatrixDeterministicResult) {
  BandedParams p;
  p.n = 600;
  p.block = 4;
  p.band_blocks = 3;
  Csr<value_t> a = Csr<value_t>::from_coo(gen_banded(p, 7));
  SpmspvOperator<value_t> op(a);
  SparseVec<value_t> x = gen_sparse_vector(600, 0.05, 16);
  SparseVec<value_t> y1 = op.multiply(x);
  SparseVec<value_t> y2 = op.multiply(x);
  EXPECT_EQ(y1.idx, y2.idx);
  EXPECT_EQ(y1.vals, y2.vals);  // bitwise deterministic across calls
}

}  // namespace
}  // namespace tilespmspv
