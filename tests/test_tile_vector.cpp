// Tests for the tiled sparse vector (paper §3.2.2 / Fig. 3), including the
// paper's worked example and the O(1) indexing identity.
#include <gtest/gtest.h>

#include "formats/sparse_vector.hpp"
#include "gen/vector_gen.hpp"
#include "tile/tile_vector.hpp"
#include "tile/tile_vector_block.hpp"

namespace tilespmspv {
namespace {

TEST(TileVector, PaperFigure3Example) {
  // Length-16 vector, five nonzeros, tiles of length four; the second and
  // fourth tiles are empty and must be marked -1, the others numbered in
  // order of appearance.
  SparseVec<value_t> x(16);
  x.push(0, 1.0);
  x.push(2, 2.0);
  x.push(3, 3.0);
  x.push(9, 4.0);
  x.push(11, 5.0);
  TileVector<value_t> v = TileVector<value_t>::from_sparse(x, 4);
  EXPECT_EQ(v.x_ptr, (std::vector<index_t>{0, kEmptyTile, 1, kEmptyTile}));
  EXPECT_EQ(v.num_nonempty_tiles(), 2);
  // x_tile stores the two non-empty tiles densely.
  EXPECT_EQ(v.x_tile,
            (std::vector<value_t>{1.0, 0.0, 2.0, 3.0, 0.0, 4.0, 0.0, 5.0}));
}

TEST(TileVector, IndexingIdentityFromPaper) {
  // x value is recovered by x_tile[x_ptr[i/nt]*nt + i%nt] for any i in a
  // non-empty tile, and tiles marked -1 contain only zeros.
  SparseVec<value_t> x = gen_sparse_vector(1000, 0.05, 3);
  const index_t nt = 16;
  TileVector<value_t> v = TileVector<value_t>::from_sparse(x, nt);
  const auto dense = x.to_dense();
  for (index_t i = 0; i < x.n; ++i) {
    const index_t slot = v.x_ptr[i / nt];
    if (slot == kEmptyTile) {
      EXPECT_EQ(dense[i], 0.0);
    } else {
      EXPECT_EQ(v.x_tile[slot * nt + i % nt], dense[i]);
    }
    EXPECT_EQ(v.at(i), dense[i]);
  }
}

class TileVectorRoundTrip
    : public ::testing::TestWithParam<std::tuple<index_t, double, index_t>> {};

TEST_P(TileVectorRoundTrip, SparseTiledSparse) {
  const auto [n, sparsity, nt] = GetParam();
  SparseVec<value_t> x = gen_sparse_vector(n, sparsity, 17);
  TileVector<value_t> v = TileVector<value_t>::from_sparse(x, nt);
  SparseVec<value_t> back = v.to_sparse();
  EXPECT_EQ(back.idx, x.idx);
  EXPECT_EQ(back.vals, x.vals);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TileVectorRoundTrip,
    ::testing::Combine(::testing::Values<index_t>(1, 15, 16, 17, 1000, 4099),
                       ::testing::Values(0.001, 0.05, 0.5),
                       ::testing::Values<index_t>(4, 16, 32, 64)));

TEST(TileVector, EmptyVector) {
  SparseVec<value_t> x(64);
  TileVector<value_t> v = TileVector<value_t>::from_sparse(x, 16);
  EXPECT_EQ(v.num_nonempty_tiles(), 0);
  EXPECT_EQ(v.tile_density(), 0.0);
  for (index_t i = 0; i < 64; ++i) EXPECT_EQ(v.at(i), 0.0);
}

TEST(TileVector, AllTilesNonEmpty) {
  SparseVec<value_t> x(32);
  for (index_t i = 0; i < 32; ++i) x.push(i, static_cast<value_t>(i + 1));
  TileVector<value_t> v = TileVector<value_t>::from_sparse(x, 8);
  EXPECT_EQ(v.num_nonempty_tiles(), 4);
  EXPECT_DOUBLE_EQ(v.tile_density(), 1.0);
}

TEST(TileVector, LastPartialTilePadsWithZeros) {
  SparseVec<value_t> x(10);
  x.push(9, 7.0);  // in the final partial tile (tile 2 of size 4)
  TileVector<value_t> v = TileVector<value_t>::from_sparse(x, 4);
  EXPECT_EQ(v.num_tiles(), 3);
  EXPECT_EQ(v.x_ptr[2], 0);
  EXPECT_EQ(v.at(9), 7.0);
  SparseVec<value_t> back = v.to_sparse();
  EXPECT_EQ(back.idx, (std::vector<index_t>{9}));
}

// `tiles` lists each slot's tile in slot order, which is tile order, for
// sorted input and for the unsorted input from_sparse also accepts.
TEST(TileVector, TileListInvertsSlotMap) {
  const SparseVec<value_t> x = gen_sparse_vector(1000, 0.02, 5);
  const TileVector<value_t> v = TileVector<value_t>::from_sparse(x, 16);
  ASSERT_EQ(static_cast<index_t>(v.tiles.size()), v.num_nonempty_tiles());
  std::vector<index_t> expect;
  for (index_t t = 0; t < v.num_tiles(); ++t) {
    if (v.x_ptr[t] != kEmptyTile) expect.push_back(t);
  }
  EXPECT_EQ(v.tiles, expect);

  SparseVec<value_t> shuffled(1000);
  for (std::size_t k = x.idx.size(); k-- > 0;) {
    shuffled.idx.push_back(x.idx[k]);
    shuffled.vals.push_back(x.vals[k]);
  }
  const TileVector<value_t> u = TileVector<value_t>::from_sparse(shuffled, 16);
  EXPECT_EQ(u.tiles, v.tiles);
  EXPECT_EQ(u.x_ptr, v.x_ptr);
  EXPECT_EQ(u.x_tile, v.x_tile);
  EXPECT_TRUE(validate_tile_vector(u).ok());
}

// An index outside [0, n) would write outside x_tile; the check holds in
// Release builds, and the block builder passes a lane's error through.
TEST(TileVector, RejectsIndexOutsideLength) {
  for (const index_t bad : {index_t{20}, index_t{-1}}) {
    SparseVec<value_t> x(20);
    x.idx = {3, bad};
    x.vals = {1.0, 2.0};
    EXPECT_THROW(TileVector<value_t>::from_sparse(x, 16), std::out_of_range)
        << bad;
    ThreadPool pool(4);
    const std::vector<SparseVec<value_t>> lanes = {
        gen_sparse_vector(20, 0.3, 1), x, gen_sparse_vector(20, 0.3, 2)};
    EXPECT_THROW(TileVectorBlock<value_t>::from_sparse(lanes, 16, &pool),
                 std::out_of_range)
        << bad;
  }
}

TEST(TileVector, TileDensityMatchesDefinition) {
  SparseVec<value_t> x(160);
  x.push(0, 1.0);
  x.push(150, 1.0);
  TileVector<value_t> v = TileVector<value_t>::from_sparse(x, 16);
  EXPECT_DOUBLE_EQ(v.tile_density(), 0.2);  // 2 of 10 tiles
}

}  // namespace
}  // namespace tilespmspv
