// Tests for the format-invariant validation layer: every validator accepts
// the structures the conversions build, and each checked invariant is
// exercised by seeding exactly one violation and asserting it is caught
// (with the expected invariant slug in the report).
#include <gtest/gtest.h>

#include <stdexcept>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "formats/validate.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/vector_gen.hpp"
#include "tile/bit_tile_graph.hpp"
#include "tile/packed_tile_matrix.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector.hpp"

namespace tilespmspv {
namespace {

// Asserts the result is a rejection and that the named invariant is the one
// reported (slugs are part of the validator's contract — the fuzz harness
// and the CLI surface them to users).
void expect_issue(const ValidationResult& r, const std::string& slug) {
  ASSERT_FALSE(r.ok()) << "expected a violation of " << slug;
  EXPECT_NE(r.message().find(slug), std::string::npos)
      << "expected invariant '" << slug << "', got: " << r.message();
}

Csr<value_t> dense_csr(index_t rows = 40, index_t cols = 40,
                       std::uint64_t seed = 9001) {
  return Csr<value_t>::from_coo(gen_erdos_renyi(rows, cols, 0.2, seed));
}

TEST(ValidateCoo, AcceptsGenerated) {
  EXPECT_TRUE(validate_coo(gen_erdos_renyi(30, 20, 0.1, 1)).ok());
}

TEST(ValidateCoo, CatchesNegativeDims) {
  Coo<value_t> m(4, 4);
  m.rows = -1;
  expect_issue(validate_coo(m), "dims/nonnegative");
}

TEST(ValidateCoo, CatchesRaggedArrays) {
  Coo<value_t> m(4, 4);
  m.push(1, 2, 3.0);
  m.vals.push_back(4.0);
  expect_issue(validate_coo(m), "arrays/parallel");
}

TEST(ValidateCoo, CatchesIndexOutOfRange) {
  Coo<value_t> m(4, 4);
  m.push(1, 2, 3.0);
  m.col_idx[0] = 4;
  expect_issue(validate_coo(m), "col_idx/range");
  m.col_idx[0] = -1;
  expect_issue(validate_coo(m), "col_idx/range");
}

TEST(ValidateCsr, AcceptsGenerated) {
  EXPECT_TRUE(validate_csr(dense_csr()).ok());
}

TEST(ValidateCsr, CatchesRowPtrLength) {
  auto a = dense_csr();
  a.row_ptr.pop_back();
  expect_issue(validate_csr(a), "row_ptr/length");
}

TEST(ValidateCsr, CatchesRowPtrNotMonotone) {
  auto a = dense_csr();
  a.row_ptr[1] = a.row_ptr[2] + 1;
  expect_issue(validate_csr(a), "row_ptr/monotone");
}

TEST(ValidateCsr, CatchesRowPtrOrigin) {
  auto a = dense_csr();
  a.row_ptr[0] = 1;
  expect_issue(validate_csr(a), "row_ptr/origin");
}

TEST(ValidateCsr, CatchesRowPtrTerminalSum) {
  auto a = dense_csr();
  a.row_ptr.back() -= 1;
  expect_issue(validate_csr(a), "row_ptr/total");
}

TEST(ValidateCsr, CatchesColOutOfRange) {
  auto a = dense_csr();
  a.col_idx[0] = a.cols;
  expect_issue(validate_csr(a), "col_idx/range");
}

TEST(ValidateCsr, CatchesUnsortedColumns) {
  auto a = dense_csr();
  // Find a row with at least two entries and duplicate the first column.
  for (index_t r = 0; r < a.rows; ++r) {
    if (a.row_ptr[r + 1] - a.row_ptr[r] >= 2) {
      a.col_idx[a.row_ptr[r] + 1] = a.col_idx[a.row_ptr[r]];
      break;
    }
  }
  expect_issue(validate_csr(a), "col_idx/sorted");
}

TEST(ValidateSparseVec, AcceptsGenerated) {
  EXPECT_TRUE(validate_sparse_vec(gen_sparse_vector(200, 0.05)).ok());
}

TEST(ValidateSparseVec, CatchesUnsortedAndZeroAndRange) {
  SparseVec<value_t> x(10);
  x.push(3, 1.0);
  x.push(7, 2.0);

  auto unsorted = x;
  std::swap(unsorted.idx[0], unsorted.idx[1]);
  expect_issue(validate_sparse_vec(unsorted), "idx/sorted-unique");

  auto zeroed = x;
  zeroed.vals[1] = 0.0;
  expect_issue(validate_sparse_vec(zeroed), "vals/no-stored-zeros");

  auto out = x;
  out.idx[1] = 10;
  expect_issue(validate_sparse_vec(out), "idx/range");
}

TEST(ValidateTileVector, AcceptsConverted) {
  const auto x = gen_sparse_vector(210, 0.05);  // partial last tile
  EXPECT_TRUE(validate_tile_vector(TileVector<value_t>::from_sparse(x, 16)).ok());
}

TEST(ValidateTileVector, CatchesSlotViolations) {
  const auto x = gen_sparse_vector(210, 0.2, 7);
  auto v = TileVector<value_t>::from_sparse(x, 16);
  ASSERT_GE(v.num_nonempty_tiles(), 2);

  auto bad = v;
  bad.x_ptr[0] = v.num_nonempty_tiles();  // past the stored blocks
  expect_issue(validate_tile_vector(bad), "x_ptr/range");

  bad = v;
  // Point two tiles at the same slot: duplicates and leaves one uncovered.
  index_t first = -1;
  for (std::size_t t = 0; t < bad.x_ptr.size(); ++t) {
    if (bad.x_ptr[t] == kEmptyTile) continue;
    if (first < 0) {
      first = bad.x_ptr[t];
    } else {
      bad.x_ptr[t] = first;
      break;
    }
  }
  expect_issue(validate_tile_vector(bad), "x_ptr/unique-slots");

  bad = v;
  bad.x_tile.push_back(1.0);  // payload no longer a multiple of nt
  expect_issue(validate_tile_vector(bad), "x_tile/length");

  bad = v;
  bad.nnz += 1;
  expect_issue(validate_tile_vector(bad), "nnz/agreement");
}

TEST(ValidateTileVector, CatchesTileListViolations) {
  const auto x = gen_sparse_vector(210, 0.2, 7);
  const auto v = TileVector<value_t>::from_sparse(x, 16);
  ASSERT_GE(v.num_nonempty_tiles(), 3);

  auto bad = v;
  bad.tiles.pop_back();
  expect_issue(validate_tile_vector(bad), "tiles/length");

  bad = v;
  std::swap(bad.tiles[0], bad.tiles[1]);
  expect_issue(validate_tile_vector(bad), "tiles/sorted");

  // Slots numbered out of tile order: the list is still increasing, but
  // x_ptr no longer maps its first tile to slot 0.
  bad = v;
  std::swap(bad.x_ptr[bad.tiles[0]], bad.x_ptr[bad.tiles[1]]);
  expect_issue(validate_tile_vector(bad), "tiles/agreement");
}

TEST(ValidateTileVector, CatchesNonzeroPadding) {
  SparseVec<value_t> x(20);  // 20 % 16 != 0: last tile is partial
  x.push(1, 1.0);
  x.push(18, 2.0);
  auto v = TileVector<value_t>::from_sparse(x, 16);
  ASSERT_NE(v.x_ptr.back(), kEmptyTile);
  v.x_tile[static_cast<std::size_t>(v.x_ptr.back()) * 16 + 7] = 9.0;  // >= 20
  expect_issue(validate_tile_vector(v), "x_tile/padding");
}

TileMatrix<value_t> tiled(index_t extract = 3) {
  // A dense core (cols 0..31) plus isolated entries in the last tile
  // column, so even a threshold of 1 extracts a non-empty side part.
  Coo<value_t> coo = gen_erdos_renyi(50, 32, 0.2, 9001);
  coo.cols = 44;
  coo.push(3, 40, 1.5);
  coo.push(20, 42, -2.0);
  coo.push(35, 41, 0.5);
  coo.push(49, 43, 4.0);
  auto m = TileMatrix<value_t>::from_csr(Csr<value_t>::from_coo(coo), 16,
                                         extract);
  EXPECT_GT(m.num_tiles(), 0);
  return m;
}

TEST(ValidateTileMatrix, AcceptsConverted) {
  EXPECT_TRUE(validate_tile_matrix(tiled()).ok());
  EXPECT_TRUE(validate_tile_matrix(tiled(0)).ok());
}

TEST(ValidateTileMatrix, CatchesGridViolations) {
  auto m = tiled();
  auto bad = m;
  bad.tile_cols += 1;
  expect_issue(validate_tile_matrix(bad), "grid/dims");

  bad = m;
  bad.tile_col_id[0] = bad.tile_cols;
  expect_issue(validate_tile_matrix(bad), "tile_col_id/range");

  bad = m;
  bad.tile_row_ptr[1] = bad.tile_row_ptr.back() + 5;
  EXPECT_FALSE(validate_tile_matrix(bad).ok());

  bad = m;
  bad.tile_nnz_ptr.back() += 1;
  expect_issue(validate_tile_matrix(bad), "tile_nnz_ptr/total");
}

TEST(ValidateTileMatrix, CatchesIntraTileViolations) {
  auto m = tiled();
  auto bad = m;
  // Tile 0's local total (p[nt]) no longer matches its tile_nnz_ptr range.
  bad.intra_row_ptr[bad.nt] =
      static_cast<std::uint16_t>(bad.intra_row_ptr[bad.nt] + 1);
  expect_issue(validate_tile_matrix(bad), "intra_row_ptr/total");

  bad = m;
  bad.local_col[0] = static_cast<std::uint8_t>(200);  // >= any col_limit
  expect_issue(validate_tile_matrix(bad), "local_col/range");

  // Unsorted local columns: find a tile row with >= 2 entries.
  bad = m;
  bool seeded = false;
  for (index_t t = 0; t < bad.num_tiles() && !seeded; ++t) {
    const std::uint16_t* p = &bad.intra_row_ptr[t * (bad.nt + 1)];
    for (index_t lr = 0; lr < bad.nt; ++lr) {
      if (p[lr + 1] - p[lr] >= 2) {
        const offset_t i = bad.tile_nnz_ptr[t] + p[lr];
        bad.local_col[i + 1] = bad.local_col[i];
        seeded = true;
        break;
      }
    }
  }
  ASSERT_TRUE(seeded);
  expect_issue(validate_tile_matrix(bad), "local_col/sorted");
}

TEST(ValidateTileMatrix, CatchesExtractedViolations) {
  auto m = tiled();
  ASSERT_GT(m.extracted.nnz(), 1) << "fixture must exercise extraction";

  auto bad = m;
  bad.extracted.rows += 1;
  expect_issue(validate_tile_matrix(bad), "extracted/dims");

  bad = m;
  ASSERT_GT(bad.extracted.row_idx.back(), 0) << "fixture needs spread rows";
  bad.extracted.row_idx.back() = 0;  // breaks row-major order at the tail
  expect_issue(validate_tile_matrix(bad), "extracted/row-major");

  bad = m;
  bad.extracted.col_idx[0] = bad.cols;
  expect_issue(validate_tile_matrix(bad), "extracted.col_idx/range");
}

TEST(ValidateTileMatrix, CatchesDerivedIndexDisagreement) {
  auto m = tiled();
  ASSERT_GT(m.extracted.nnz(), 0);

  auto bad = m;
  bad.side_vals[0] += 1.0;
  expect_issue(validate_tile_matrix(bad), "side/agreement");

  bad = m;
  bad.side_col_ptr[bad.cols / 2] += 1;
  EXPECT_FALSE(validate_tile_matrix(bad).ok());

  bad = m;
  bad.side_row_ptr[bad.rows / 2] += 1;
  EXPECT_FALSE(validate_tile_matrix(bad).ok());
}

TEST(ValidateTileMatrix, CatchesRunListAndStrategyViolations) {
  auto m = tiled();
  ASSERT_GT(m.row_runs.size(), 3u);

  auto bad = m;
  bad.row_runs[1] = static_cast<std::uint8_t>(bad.row_runs[1] + 1);  // count
  expect_issue(validate_tile_matrix(bad), "row_runs/agreement");

  bad = m;
  bad.tile_strategy[0] = 7;
  expect_issue(validate_tile_matrix(bad), "tile_strategy/range");

  bad = m;
  bad.run_ptr.back() += 1;
  EXPECT_FALSE(validate_tile_matrix(bad).ok());
}

// Run lists are a TileMatrix invariant: every multiply walks them, so a
// matrix without them is refused rather than read past run_ptr's end.
TEST(ValidateTileMatrix, RejectsMatrixWithoutRunLists) {
  auto bad = tiled();
  bad.run_ptr.clear();
  bad.row_runs.clear();
  bad.tile_strategy.clear();
  expect_issue(validate_tile_matrix(bad), "run_ptr/length");

  bad = tiled();
  bad.tile_strategy.clear();
  expect_issue(validate_tile_matrix(bad), "tile_strategy/length");
}

TEST(ValidateTileMatrix, CatchesChunkCoverageViolations) {
  auto m = tiled();
  ASSERT_GE(m.row_chunk_ptr.size(), 2u);

  auto bad = m;
  bad.row_chunk_ptr.back() = bad.tile_rows + 1;
  expect_issue(validate_tile_matrix(bad), "row_chunk_ptr/coverage");

  bad = m;
  bad.row_chunk_ptr[0] = 1;
  expect_issue(validate_tile_matrix(bad), "row_chunk_ptr/origin");
}

TEST(ValidatePackedTileMatrix, AcceptsConverted) {
  EXPECT_TRUE(
      validate_packed_tile_matrix(PackedTileMatrix<value_t>::from_csr(dense_csr()))
          .ok());
}

TEST(ValidatePackedTileMatrix, CatchesNibbleOutOfEdgeTile) {
  // 20x20: the last tile row/column only covers 4 local rows/columns, so a
  // nibble of 15 points past the matrix edge.
  auto a = Csr<value_t>::from_coo(gen_erdos_renyi(20, 20, 0.4, 77));
  auto m = PackedTileMatrix<value_t>::from_csr(a);
  const index_t last_tr = m.tile_rows - 1;
  ASSERT_LT(m.tile_row_ptr[last_tr], m.tile_row_ptr[last_tr + 1])
      << "fixture must populate the last tile row";
  const offset_t t = m.tile_row_ptr[last_tr];
  m.packed[m.tile_nnz_ptr[t]] = PackedTileMatrix<value_t>::pack(15, 0);
  expect_issue(validate_packed_tile_matrix(m), "packed/range");
}

TEST(ValidatePackedTileMatrix, CatchesGridAndPtrViolations) {
  auto m = PackedTileMatrix<value_t>::from_csr(dense_csr());
  auto bad = m;
  bad.tile_nnz_ptr.back() += 1;
  expect_issue(validate_packed_tile_matrix(bad), "tile_nnz_ptr/total");

  bad = m;
  bad.packed.pop_back();
  expect_issue(validate_packed_tile_matrix(bad), "payload/parallel");
}

BitTileGraph<16> shared_graph(index_t extract = 0) {
  auto coo = gen_erdos_renyi(40, 40, 0.15, 501);
  coo.symmetrize();
  auto g = BitTileGraph<16>::from_csr(Csr<value_t>::from_coo(coo), extract,
                                      true);
  EXPECT_TRUE(g.shared_masks);
  return g;
}

BitTileGraph<16> directed_graph() {
  auto g = BitTileGraph<16>::from_csr(
      Csr<value_t>::from_coo(gen_erdos_renyi(40, 40, 0.15, 502)), 2, true);
  EXPECT_FALSE(g.shared_masks);
  return g;
}

TEST(ValidateBitTileGraph, AcceptsBothModes) {
  EXPECT_TRUE(validate_bit_tile_graph(shared_graph()).ok());
  EXPECT_TRUE(validate_bit_tile_graph(directed_graph()).ok());
}

TEST(ValidateBitTileGraph, CatchesMaskPastColumnLimit) {
  // n = 20, NT = 16: the last tile column covers only 4 local columns, so
  // the low 12 bits of its mask words are out of range.
  auto coo = gen_erdos_renyi(20, 20, 0.4, 503);
  coo.symmetrize();
  auto g = BitTileGraph<16>::from_csr(Csr<value_t>::from_coo(coo), 0, false);
  offset_t edge_tile = -1;
  for (index_t tr = 0; tr < g.tile_n && edge_tile < 0; ++tr) {
    for (offset_t t = g.csr_tile_ptr[tr]; t < g.csr_tile_ptr[tr + 1]; ++t) {
      if (g.csr_tile_col[t] == g.tile_n - 1) {
        edge_tile = t;
        break;
      }
    }
  }
  ASSERT_GE(edge_tile, 0) << "fixture must populate the last tile column";
  g.csr_masks[static_cast<std::size_t>(edge_tile) * 16] |= 1;  // bit 15 >= 4
  expect_issue(validate_bit_tile_graph(g), "csr_masks/col-width");
}

TEST(ValidateBitTileGraph, CatchesMaskPastRowLimit) {
  auto coo = gen_erdos_renyi(20, 20, 0.4, 504);
  coo.symmetrize();
  auto g = BitTileGraph<16>::from_csr(Csr<value_t>::from_coo(coo), 0, false);
  const index_t last_tr = g.tile_n - 1;
  ASSERT_LT(g.csr_tile_ptr[last_tr], g.csr_tile_ptr[last_tr + 1]);
  const offset_t t = g.csr_tile_ptr[last_tr];
  // Local row 15 is past the edge (only 4 rows remain); also fix the
  // summary so the row-clip check is the one that fires.
  g.csr_masks[static_cast<std::size_t>(t) * 16 + 15] = msb_bit<std::uint16_t>(0);
  g.csr_row_summary[t] |= msb_bit<std::uint16_t>(15);
  expect_issue(validate_bit_tile_graph(g), "csr_masks/row-clip");
}

TEST(ValidateBitTileGraph, CatchesSummaryDisagreement) {
  auto g = directed_graph();
  g.csr_row_summary[0] = static_cast<std::uint16_t>(~g.csr_row_summary[0]);
  expect_issue(validate_bit_tile_graph(g), "csr_row_summary/agreement");

  auto g2 = directed_graph();
  g2.csc_col_summary[0] = static_cast<std::uint16_t>(~g2.csc_col_summary[0]);
  expect_issue(validate_bit_tile_graph(g2), "csc_col_summary/agreement");
}

TEST(ValidateBitTileGraph, CatchesMirrorCorruption) {
  auto g = shared_graph();
  ASSERT_GE(g.num_tiles(), 2);
  g.csc_mirror[0] = g.csc_mirror[0] == 0 ? 1 : 0;
  expect_issue(validate_bit_tile_graph(g), "csc_mirror/agreement");
}

TEST(ValidateBitTileGraph, CatchesBrokenMaskTranspose) {
  auto g = directed_graph();
  ASSERT_FALSE(g.csc_masks.empty());
  g.csc_masks[0] = static_cast<std::uint16_t>(g.csc_masks[0] ^ 1);
  expect_issue(validate_bit_tile_graph(g), "csc_masks/transpose-agreement");
}

TEST(ValidateBitTileGraph, CatchesEdgeCountAndSideViolations) {
  auto g = shared_graph();
  auto bad = g;
  bad.edges += 1;
  expect_issue(validate_bit_tile_graph(bad), "edges/total");

  // Side-list checks need extracted edges: a huge threshold extracts all.
  auto gs = shared_graph(100000);
  ASSERT_FALSE(gs.side_dst.empty()) << "fixture must extract some edges";
  ASSERT_TRUE(validate_bit_tile_graph(gs).ok());
  auto bads = gs;
  bads.side_dst[0] = bads.n;
  expect_issue(validate_bit_tile_graph(bads), "side_dst/range");

  bads = gs;
  bads.side_ptr[bads.n / 2] = bads.side_ptr.back() + 1;
  EXPECT_FALSE(validate_bit_tile_graph(bads).ok());

  // The side summary is derived from side_ptr; optional, but checked
  // word for word when present.
  bads = gs;
  bads.side_summary[0] = static_cast<decltype(gs)::Word>(~gs.side_summary[0]);
  expect_issue(validate_bit_tile_graph(bads), "side_summary/agreement");
  bads = gs;
  bads.side_summary.resize(bads.side_summary.size() - 1);
  expect_issue(validate_bit_tile_graph(bads), "side_summary/length");
  bads = gs;
  bads.side_summary.clear();
  EXPECT_TRUE(validate_bit_tile_graph(bads).ok());
}

TEST(RequireValid, ThrowsRuntimeErrorWithInvariant) {
  Coo<value_t> m(4, 4);
  m.push(1, 2, 3.0);
  m.col_idx[0] = 9;
  EXPECT_NO_THROW(
      require_valid(validate_coo(gen_erdos_renyi(5, 5, 0.5, 1)), "test"));
  try {
    require_valid(validate_coo(m), "test");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("col_idx/range"), std::string::npos)
        << e.what();
  }
}

TEST(ValidationResult, CapsIssueCollection) {
  ValidationResult r;
  for (int i = 0; i < 40; ++i) {
    r.add("inv/" + std::to_string(i), "detail");
  }
  EXPECT_EQ(r.issues.size(), ValidationResult::kMaxIssues);
  EXPECT_TRUE(r.truncated);
  EXPECT_NE(r.message().find("suppressed"), std::string::npos);
}

}  // namespace
}  // namespace tilespmspv
