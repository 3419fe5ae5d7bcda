// Block-of-k SpMSpM: Y = A X for a TileVectorBlock of k <= 64 sparse
// vectors sharing one traversal of the tiled matrix. The paper frames
// SpMSpV as the k = 1 corner of SpGEMM (§1); this engine is the register/
// cache-blocked middle ground, and it is the CSR form's walk
// (detail::csr_spmspm, core/tile_spmspv.hpp) at k lanes: tile metadata is
// read once per block, each nonzero a.vals[z] is broadcast and FMA'd
// across the k lanes of a lane-interleaved accumulator
// (simd::lane_panel_update / lane_panel16_update), and the per-slot lane
// words of the block replace k separate x_ptr probes per tile. At k = 1 it
// runs tile_spmspv's run kernel, so a one-lane block is bitwise
// tile_spmspv's result.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/tile_spmspv.hpp"
#include "formats/sparse_vector.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector_block.hpp"
#include "util/bitkernels.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// Y[v] = A * X.lane(v) for every lane of the block. Per lane, the result
/// is numerically equivalent to tile_spmspv (same products, possibly
/// different summation order at k >= 2, bitwise equal at k = 1), and
/// bitwise the same on any pool or run. Throws std::invalid_argument on an
/// x that does not fit A (require_operand), std::length_error if rows × k
/// overflows index_t.
template <typename T>
std::vector<SparseVec<T>> tile_spmspm(const TileMatrix<T>& a,
                                      const TileVectorBlock<T>& x,
                                      SpmspvWorkspace<T>& ws,
                                      ThreadPool* pool = nullptr) {
  const index_t k = x.k;
  if (k == 0) return {};
  detail::require_operand(x, a.cols, a.nt, "tile_spmspm");
  if (static_cast<offset_t>(a.rows) * k > std::numeric_limits<index_t>::max()) {
    throw std::length_error("tile_spmspm: rows * k overflows a side cell");
  }
  // The side pass walks the block's tile list (slot order is tile order).
  if (a.extracted.nnz() > 0) {
    ws.active.resize(static_cast<std::size_t>(x.num_tiles()));
    ws.active.resize(static_cast<std::size_t>(bitk::collect_nonzero(
        x.active.data(), x.num_tiles(), 0, ws.active.data())));
  }
  std::vector<SparseVec<T>> ys(static_cast<std::size_t>(k),
                               SparseVec<T>(a.rows));
  detail::csr_spmspm(
      a, x.x_ptr.data(), x.x_tile.data(), k,
      [&](index_t t) { return x.active[t]; }, ws.active, ws, pool, "block",
      nullptr, false, ys.data());
  return ys;
}

/// Convenience overload owning a transient workspace.
template <typename T>
std::vector<SparseVec<T>> tile_spmspm(const TileMatrix<T>& a,
                                      const TileVectorBlock<T>& x,
                                      ThreadPool* pool = nullptr) {
  SpmspvWorkspace<T> ws;
  return tile_spmspm(a, x, ws, pool);
}

}  // namespace tilespmspv
