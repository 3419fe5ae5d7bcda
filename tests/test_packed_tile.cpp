// Tests for the packed-byte tile layout (paper §3.2.1's nt = 16 encoding):
// packing arithmetic, construction round trips, and kernel equivalence to
// the reference SpMSpV.
#include <gtest/gtest.h>

#include "core/spmspv_reference.hpp"
#include "gen/banded.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/vector_gen.hpp"
#include "tile/packed_tile_matrix.hpp"
#include "tile/tile_matrix.hpp"

namespace tilespmspv {
namespace {

using Packed = PackedTileMatrix<value_t>;

TEST(PackedTile, NibblePacking) {
  // Paper: "the first and last four bits will contain the row and column
  // indices, respectively."
  for (index_t r = 0; r < 16; ++r) {
    for (index_t c = 0; c < 16; ++c) {
      const std::uint8_t b = Packed::pack(r, c);
      EXPECT_EQ(Packed::unpack_row(b), r);
      EXPECT_EQ(Packed::unpack_col(b), c);
    }
  }
  EXPECT_EQ(Packed::pack(0xF, 0x0), 0xF0);
  EXPECT_EQ(Packed::pack(0x0, 0xF), 0x0F);
}

class PackedRoundTrip
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, double>> {};

TEST_P(PackedRoundTrip, PreservesEveryNonzero) {
  const auto [rows, cols, density] = GetParam();
  Coo<value_t> coo = gen_erdos_renyi(rows, cols, density, 901 + rows);
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  Packed p = Packed::from_csr(a);
  coo.sort_row_major();
  Coo<value_t> back = p.to_coo();
  EXPECT_EQ(back.row_idx, coo.row_idx);
  EXPECT_EQ(back.col_idx, coo.col_idx);
  EXPECT_EQ(back.vals, coo.vals);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedRoundTrip,
    ::testing::Combine(::testing::Values<index_t>(1, 16, 100, 513),
                       ::testing::Values<index_t>(1, 17, 300),
                       ::testing::Values(0.01, 0.1)));

class PackedKernelSweep
    : public ::testing::TestWithParam<std::tuple<double, double, std::size_t>> {
};

TEST_P(PackedKernelSweep, MatchesReference) {
  const auto [mat_density, vec_sparsity, threads] = GetParam();
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(600, 500, mat_density, 907));
  Packed p = Packed::from_csr(a);
  SparseVec<value_t> x = gen_sparse_vector(500, vec_sparsity, 17);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  ThreadPool pool(threads);
  EXPECT_TRUE(approx_equal(packed_tile_spmspv(p, xt, &pool),
                           spmspv_rowwise_reference(a, x)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedKernelSweep,
    ::testing::Combine(::testing::Values(0.002, 0.05),
                       ::testing::Values(0.001, 0.05, 0.5),
                       ::testing::Values<std::size_t>(1, 4)));

TEST(PackedTile, MatchesIntraCsrTileCountAccounting) {
  BandedParams prm;
  prm.n = 2000;
  prm.block = 4;
  prm.band_blocks = 3;
  Csr<value_t> a = Csr<value_t>::from_coo(gen_banded(prm, 911));
  Packed p = Packed::from_csr(a);
  TileMatrix<value_t> t = TileMatrix<value_t>::from_csr(a, 16, 0);
  EXPECT_EQ(p.num_tiles(), t.num_tiles());
  EXPECT_EQ(p.tile_col_id, t.tile_col_id);
}

TEST(PackedTile, EmptyMatrix) {
  Csr<value_t> a(32, 32);
  Packed p = Packed::from_csr(a);
  EXPECT_EQ(p.num_tiles(), 0);
  SparseVec<value_t> x = gen_sparse_vector(32, 0.5, 3);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  EXPECT_EQ(packed_tile_spmspv(p, xt).nnz(), 0);
}

// A 40-long x on a 600-column matrix is refused instead of read past its
// 3-slot map.
TEST(PackedTile, RejectsOperandOfWrongShape) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(500, 600, 0.02, 200));
  const Packed p = Packed::from_csr(a);
  const TileVector<value_t> short_x =
      TileVector<value_t>::from_sparse(gen_sparse_vector(40, 0.2, 24), 16);
  EXPECT_THROW(packed_tile_spmspv(p, short_x), std::invalid_argument);
  const TileVector<value_t> wrong_nt =
      TileVector<value_t>::from_sparse(gen_sparse_vector(600, 0.05, 25), 32);
  EXPECT_THROW(packed_tile_spmspv(p, wrong_nt), std::invalid_argument);
}

TEST(PackedTile, DenseSingleTile) {
  Coo<value_t> coo(16, 16);
  for (index_t r = 0; r < 16; ++r) {
    for (index_t c = 0; c < 16; ++c) {
      coo.push(r, c, static_cast<value_t>(r * 16 + c + 1));
    }
  }
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  Packed p = Packed::from_csr(a);
  EXPECT_EQ(p.num_tiles(), 1);
  EXPECT_EQ(p.vals.size(), 256u);
  SparseVec<value_t> x(16);
  x.push(3, 2.0);
  TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  SparseVec<value_t> y = packed_tile_spmspv(p, xt);
  ASSERT_EQ(y.nnz(), 16);
  for (index_t r = 0; r < 16; ++r) {
    EXPECT_DOUBLE_EQ(y.vals[r], 2.0 * (r * 16 + 3 + 1));
  }
}

}  // namespace
}  // namespace tilespmspv
