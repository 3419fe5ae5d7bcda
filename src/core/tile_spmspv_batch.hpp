// Batched TileSpMSpV: Y = A X for a block of sparse vectors sharing one
// traversal of the tiled matrix. This is now a thin front over the
// block-of-k SpMSpM engine (core/tile_spmspm.hpp): vectors are packed into
// TileVectorBlock SoA blocks of up to 64 lanes and each block rides one
// broadcast-FMA traversal. The engine is tile_spmspv's walk at k lanes, so
// a one-vector batch is bitwise tile_spmspv; larger batches are
// numerically equivalent per lane with a lane-major summation order.
#pragma once

#include <algorithm>
#include <vector>

#include "core/tile_spmspm.hpp"
#include "core/tile_spmspv.hpp"
#include "formats/sparse_vector.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector.hpp"
#include "tile/tile_vector_block.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// Y[v] = A * X[v] for every v. Equivalent to k independent tile_spmspv
/// calls (bitwise for k == 1; same products per lane otherwise).
template <typename T>
std::vector<SparseVec<T>> tile_spmspv_batch(
    const TileMatrix<T>& a, const std::vector<TileVector<T>>& xs,
    ThreadPool* pool = nullptr) {
  const auto k = static_cast<index_t>(xs.size());
  std::vector<SparseVec<T>> ys(static_cast<std::size_t>(k));
  SpmspvWorkspace<T> ws;
  for (index_t base = 0; base < k; base += TileVectorBlock<T>::kMaxLanes) {
    const index_t kb =
        std::min<index_t>(TileVectorBlock<T>::kMaxLanes, k - base);
    const TileVectorBlock<T> xb = TileVectorBlock<T>::from_tiled(
        xs.data() + static_cast<std::size_t>(base), kb, pool);
    std::vector<SparseVec<T>> yb = tile_spmspm(a, xb, ws, pool);
    for (index_t v = 0; v < kb; ++v) {
      ys[static_cast<std::size_t>(base + v)] =
          std::move(yb[static_cast<std::size_t>(v)]);
    }
  }
  return ys;
}

/// Convenience overload tiling plain sparse vectors first; the independent
/// per-vector conversions run in parallel.
template <typename T>
std::vector<SparseVec<T>> tile_spmspv_batch(
    const TileMatrix<T>& a, const std::vector<SparseVec<T>>& xs,
    ThreadPool* pool = nullptr) {
  const auto k = static_cast<index_t>(xs.size());
  std::vector<TileVector<T>> tiled(static_cast<std::size_t>(k));
  parallel_for(
      k,
      [&](index_t v) {
        tiled[static_cast<std::size_t>(v)] =
            TileVector<T>::from_sparse(xs[static_cast<std::size_t>(v)], a.nt);
      },
      pool, /*chunk=*/1);
  return tile_spmspv_batch(a, tiled, pool);
}

}  // namespace tilespmspv
