// Analytic work model for the SpMSpV algorithms: walks the tiled metadata
// (never the payloads) and predicts how much work each kernel will do for
// a given input vector — tiles scanned, tiles computed, multiply-adds,
// side-matrix operations. The reproduction's performance claims are
// work-driven (see EXPERIMENTS.md), and this model makes them checkable:
// measured runtimes should rank like modeled work, and the tests verify
// the model against brute-force counting.
#pragma once

#include "formats/csr.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector.hpp"
#include "util/types.hpp"

namespace tilespmspv {

struct SpmspvWork {
  offset_t tiles_scanned = 0;   // tile metadata entries visited
  offset_t tiles_computed = 0;  // tiles whose payload is multiplied
  offset_t payload_macs = 0;    // multiply-adds inside computed tiles
  offset_t side_macs = 0;       // multiply-adds in the extracted part
  offset_t gather_slots = 0;    // output slots the gather scans (below)

  offset_t total_ops() const {
    return tiles_scanned + payload_macs + side_macs + gather_slots;
  }
};

/// Work of the CSR-form kernel (paper Alg. 4): every tile's metadata is
/// scanned; only tiles whose vector tile is non-empty compute.
template <typename T>
SpmspvWork work_tile_spmspv_csr(const TileMatrix<T>& a,
                                const TileVector<T>& x) {
  SpmspvWork w;
  w.tiles_scanned = a.num_tiles();
  for (index_t t = 0; t < a.num_tiles(); ++t) {
    if (x.x_ptr[a.tile_col_id[t]] != kEmptyTile) {
      ++w.tiles_computed;
      w.payload_macs += a.tile_nnz_ptr[t + 1] - a.tile_nnz_ptr[t];
    }
  }
  for (const index_t s : x.tiles) {
    const index_t j_begin = s * x.nt;
    const index_t j_end = std::min<index_t>(j_begin + x.nt, a.cols);
    w.side_macs += a.side_col_ptr[j_end] - a.side_col_ptr[j_begin];
  }
  w.gather_slots = a.tile_rows;
  return w;
}

/// Work of the CSC-form kernel (§3.2.3): only the tile columns selected
/// by x are touched at all. `at` is the tiled transpose, as in
/// tile_spmspv_csc. Its gather scans the output's row bitmap, so its
/// slots are 64-row words, where the CSR form's are tile rows.
template <typename T>
SpmspvWork work_tile_spmspv_csc(const TileMatrix<T>& at,
                                const TileVector<T>& x) {
  SpmspvWork w;
  for (const index_t s : x.tiles) {
    if (s >= at.tile_rows) continue;
    for (offset_t t = at.tile_row_ptr[s]; t < at.tile_row_ptr[s + 1]; ++t) {
      ++w.tiles_scanned;
      ++w.tiles_computed;
      w.payload_macs += at.tile_nnz_ptr[t + 1] - at.tile_nnz_ptr[t];
    }
    const index_t j_begin = s * x.nt;
    const index_t j_end = std::min<index_t>(j_begin + x.nt, at.rows);
    w.side_macs += at.side_row_ptr[j_end] - at.side_row_ptr[j_begin];
  }
  w.gather_slots = ceil_div<offset_t>(at.cols, 64);
  return w;
}

/// Work of a dense-vector SpMV over the same matrix: every stored nonzero
/// is multiplied (the TileSpMV / cuSPARSE cost).
template <typename T>
SpmspvWork work_spmv(const TileMatrix<T>& a) {
  SpmspvWork w;
  w.tiles_scanned = a.num_tiles();
  w.tiles_computed = a.num_tiles();
  w.payload_macs = a.tiled_nnz();
  w.side_macs = a.extracted.nnz();
  w.gather_slots = a.tile_rows;
  return w;
}

/// Main-memory traffic (bytes) implied by a SpmspvWork prediction, from
/// the tiled format's storage layout: a scanned tile reads its metadata
/// entry (4-byte tile col id + 8-byte nnz pointer), a computed payload
/// nonzero reads an 8-byte value plus its 1-byte local column, a side-COO
/// multiply-add reads value + row + column (8 + 4 + 4), and every gather
/// slot touches one 8-byte output cell or row-bitmap word. Vector traffic
/// (read of x, write of y) rides on the same slots and is second-order for
/// the sparse regimes the model targets, so it is folded into the slot
/// constant.
/// The bench-report roofline attribution divides this by the calibrated
/// memory bandwidth (obs/bench_report.hpp) to lower-bound the run time.
inline double spmspv_traffic_bytes(const SpmspvWork& w) {
  return 12.0 * static_cast<double>(w.tiles_scanned) +
         9.0 * static_cast<double>(w.payload_macs) +
         16.0 * static_cast<double>(w.side_macs) +
         8.0 * static_cast<double>(w.gather_slots);
}

/// Useful floating-point operations of the same prediction (each
/// multiply-add is two FLOPs, in the tiles and the side pass alike).
inline double spmspv_flops(const SpmspvWork& w) {
  return 2.0 * static_cast<double>(w.payload_macs + w.side_macs);
}

/// Work of a column-driven element-wise SpMSpV (CombBLAS-bucket class):
/// exactly the nonzeros of the active columns.
template <typename T>
SpmspvWork work_column_driven(const Csr<T>& a,
                              const std::vector<offset_t>& col_nnz,
                              const std::vector<index_t>& x_idx) {
  SpmspvWork w;
  for (index_t j : x_idx) w.payload_macs += col_nnz[j];
  (void)a;
  return w;
}

}  // namespace tilespmspv
