// Packed-byte tiled matrix — the exact intra-tile encoding §3.2.1 of the
// paper describes for nt = 16: each nonzero's local coordinates live in a
// single unsigned char, the high nibble holding the row and the low
// nibble the column. Entries in a tile are stored row-major, so the
// multiply is a flat scan with no per-row pointer chasing.
//
// This is the alternative to TileMatrix's intra-CSR layout; both are kept
// because they trade differently: packed-COO touches one metadata byte
// per nonzero (wins on very sparse tiles), intra-CSR exposes per-row runs
// (wins on dense tiles where the row pointer amortizes). The ablation
// bench bench_ablation_intra_tile quantifies the trade.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "formats/validate.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_chunks.hpp"
#include "tile/tile_vector.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace tilespmspv {

template <typename T = value_t>
struct PackedTileMatrix {
  static constexpr index_t kNt = 16;  // fixed: two 4-bit coordinates

  // Paper §3.2.1 layout guards: one packed entry is (row << 4) | col, so
  // both local coordinates must fit a nibble and the pair must fill one
  // unsigned char exactly.
  static_assert(kNt <= 16, "local row/col must fit 4 bits each");
  static_assert(sizeof(std::uint8_t) * 8 == 8,
                "packed nibble pair must fill one byte exactly");

  index_t rows = 0;
  index_t cols = 0;
  index_t tile_rows = 0;
  index_t tile_cols = 0;

  std::vector<offset_t> tile_row_ptr;  // CSR over the tile grid
  std::vector<index_t> tile_col_id;
  std::vector<offset_t> tile_nnz_ptr;  // entry ranges per tile
  std::vector<std::uint8_t> packed;    // (row << 4) | col per entry
  std::vector<T> vals;
  std::vector<index_t> row_chunk_ptr;  // work-balanced scheduling chunks

  static std::uint8_t pack(index_t local_row, index_t local_col) {
    return static_cast<std::uint8_t>((local_row << 4) | local_col);
  }
  static index_t unpack_row(std::uint8_t b) { return b >> 4; }
  static index_t unpack_col(std::uint8_t b) { return b & 0xF; }

  index_t num_tiles() const {
    return static_cast<index_t>(tile_col_id.size());
  }

  static PackedTileMatrix from_csr(const Csr<T>& a) {
    PackedTileMatrix m;
    m.rows = a.rows;
    m.cols = a.cols;
    m.tile_rows = ceil_div<index_t>(a.rows, kNt);
    m.tile_cols = ceil_div<index_t>(a.cols, kNt);
    m.tile_row_ptr.assign(m.tile_rows + 1, 0);

    std::vector<offset_t> tile_nnz(m.tile_cols, 0);
    std::vector<index_t> touched;
    std::vector<index_t> all_cols;
    std::vector<offset_t> all_nnz;
    for (index_t tr = 0; tr < m.tile_rows; ++tr) {
      touched.clear();
      const index_t r_end = std::min<index_t>((tr + 1) * kNt, a.rows);
      for (index_t r = tr * kNt; r < r_end; ++r) {
        for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const index_t tc = a.col_idx[i] / kNt;
          if (tile_nnz[tc] == 0) touched.push_back(tc);
          ++tile_nnz[tc];
        }
      }
      std::sort(touched.begin(), touched.end());
      for (index_t tc : touched) {
        all_cols.push_back(tc);
        all_nnz.push_back(tile_nnz[tc]);
        tile_nnz[tc] = 0;
      }
      m.tile_row_ptr[tr + 1] =
          m.tile_row_ptr[tr] + static_cast<offset_t>(touched.size());
    }
    const index_t ntiles = static_cast<index_t>(all_cols.size());
    m.tile_col_id = std::move(all_cols);
    m.tile_nnz_ptr.assign(ntiles + 1, 0);
    for (index_t t = 0; t < ntiles; ++t) {
      m.tile_nnz_ptr[t + 1] = m.tile_nnz_ptr[t] + all_nnz[t];
    }
    m.packed.resize(m.tile_nnz_ptr[ntiles]);
    m.vals.resize(m.tile_nnz_ptr[ntiles]);

    std::vector<index_t> slot_of(m.tile_cols, kEmptyTile);
    std::vector<offset_t> cursor;
    for (index_t tr = 0; tr < m.tile_rows; ++tr) {
      const offset_t t_begin = m.tile_row_ptr[tr];
      const offset_t t_end = m.tile_row_ptr[tr + 1];
      for (offset_t t = t_begin; t < t_end; ++t) {
        slot_of[m.tile_col_id[t]] = static_cast<index_t>(t);
      }
      cursor.assign(static_cast<std::size_t>(t_end - t_begin), 0);
      const index_t r_end = std::min<index_t>((tr + 1) * kNt, a.rows);
      for (index_t r = tr * kNt; r < r_end; ++r) {
        for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
          const index_t c = a.col_idx[i];
          const index_t t = slot_of[c / kNt];
          const offset_t pos = m.tile_nnz_ptr[t] + cursor[t - t_begin]++;
          m.packed[pos] = pack(r - tr * kNt, c % kNt);
          m.vals[pos] = a.vals[i];
        }
      }
      for (offset_t t = t_begin; t < t_end; ++t) {
        slot_of[m.tile_col_id[t]] = kEmptyTile;
      }
    }
    m.row_chunk_ptr =
        build_row_chunks(m.tile_rows, m.tile_row_ptr, m.tile_nnz_ptr);
    TILESPMSPV_POSTCONDITION(validate_packed_tile_matrix(m),
                             "PackedTileMatrix::from_csr");
    return m;
  }

  Coo<T> to_coo() const {
    Coo<T> out(rows, cols);
    out.reserve(vals.size());
    for (index_t tr = 0; tr < tile_rows; ++tr) {
      for (offset_t t = tile_row_ptr[tr]; t < tile_row_ptr[tr + 1]; ++t) {
        const index_t c0 = tile_col_id[t] * kNt;
        for (offset_t i = tile_nnz_ptr[t]; i < tile_nnz_ptr[t + 1]; ++i) {
          out.push(tr * kNt + unpack_row(packed[i]),
                   c0 + unpack_col(packed[i]), vals[i]);
        }
      }
    }
    out.sort_row_major();
    return out;
  }
};

/// TileSpMSpV over the packed layout: same work-weighted tile-row chunks
/// and x_ptr skipping as the intra-CSR kernel; the flat per-entry inner
/// scan runs through the SIMD layer for double values (products formed
/// 4-wide, scalar row scatter — see simd::packed_flat_scan). Throws
/// std::invalid_argument on an x that does not fit A (require_operand).
template <typename T>
SparseVec<T> packed_tile_spmspv(const PackedTileMatrix<T>& a,
                                const TileVector<T>& x,
                                ThreadPool* pool = nullptr) {
  constexpr index_t nt = PackedTileMatrix<T>::kNt;
  detail::require_operand(x, a.cols, nt, "packed_tile_spmspv");
  std::vector<T> yd(a.rows, T{});
  std::vector<unsigned char> flag(a.tile_rows, 0);
  std::vector<index_t> fallback;
  const std::vector<index_t>* cp = &a.row_chunk_ptr;
  if (cp->size() < 2) {
    fallback = uniform_row_chunks(a.tile_rows, 8);
    cp = &fallback;
  }
  const auto nchunks = static_cast<index_t>(cp->size()) - 1;
  const index_t* chunk_ptr = cp->data();
  parallel_for(
      nchunks,
      [&](index_t c) {
        T acc[nt];
        for (index_t tr = chunk_ptr[c]; tr < chunk_ptr[c + 1]; ++tr) {
          bool any = false;
          for (offset_t t = a.tile_row_ptr[tr]; t < a.tile_row_ptr[tr + 1];
               ++t) {
            const index_t x_offset = x.x_ptr[a.tile_col_id[t]];
            if (x_offset == kEmptyTile) continue;
            const T* xt = &x.x_tile[static_cast<std::size_t>(x_offset) * nt];
            if (!any) {
              for (index_t i = 0; i < nt; ++i) acc[i] = T{};
              any = true;
            }
            const offset_t base = a.tile_nnz_ptr[t];
            const auto n = static_cast<int>(a.tile_nnz_ptr[t + 1] - base);
            if constexpr (std::is_same_v<T, double>) {
              simd::packed_flat_scan(&a.vals[base], &a.packed[base], n, xt,
                                     acc);
            } else {
              for (int i = 0; i < n; ++i) {
                const std::uint8_t b = a.packed[base + i];
                acc[PackedTileMatrix<T>::unpack_row(b)] +=
                    a.vals[base + i] * xt[PackedTileMatrix<T>::unpack_col(b)];
              }
            }
          }
          if (any) {
            const index_t r_end = std::min<index_t>((tr + 1) * nt, a.rows);
            for (index_t r = tr * nt; r < r_end; ++r) {
              yd[r] = acc[r - tr * nt];
            }
            flag[tr] = 1;
          }
        }
      },
      pool, /*chunk=*/1);

  SparseVec<T> y(a.rows);
  index_t flagged = 0;
  for (index_t tr = 0; tr < a.tile_rows; ++tr) flagged += flag[tr] ? 1 : 0;
  y.reserve(static_cast<std::size_t>(flagged) * nt);
  for (index_t tr = 0; tr < a.tile_rows; ++tr) {
    if (!flag[tr]) continue;
    const index_t r_end = std::min<index_t>((tr + 1) * nt, a.rows);
    for (index_t r = tr * nt; r < r_end; ++r) {
      if (yd[r] != T{}) y.push(r, yd[r]);
    }
  }
  return y;
}

}  // namespace tilespmspv
