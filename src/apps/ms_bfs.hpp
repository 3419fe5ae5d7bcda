// Bit-parallel multi-source BFS (Then et al., VLDB'14 style): up to 64
// sources traverse simultaneously, one bit per source in a machine word
// per vertex. All sources share each edge scan, so the cost of k
// traversals approaches that of one — the standard way to batch the BFS
// fan-out of betweenness centrality and all-pairs distance sketches.
//
// Two variants share the result shape: ms_bfs expands on the plain CSR
// out-edge structure (an application-layer composition, like apps/rcm.hpp);
// ms_bfs_tiled drives the same level-synchronous traversal through the
// block-of-k SpMSpM engine, whose per-tile-slot 64-bit active words ARE the
// source-set bit-planes — one tiled matrix pass per level serves all
// sources. The single-source tiled traversal lives in bfs/tile_bfs.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/spmspv.hpp"
#include "core/tile_spmspm.hpp"
#include "formats/csr.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector_block.hpp"
#include "util/types.hpp"

namespace tilespmspv {

struct MsBfsResult {
  /// levels[s][v] = BFS level of vertex v from sources[s]; -1 unreachable.
  std::vector<std::vector<index_t>> levels;
  int rounds = 0;
};

/// `out_edges`: row u lists the out-neighbors of u. At most 64 sources.
template <typename T>
MsBfsResult ms_bfs(const Csr<T>& out_edges,
                   const std::vector<index_t>& sources,
                   ThreadPool* pool = nullptr) {
  const index_t n = out_edges.rows;
  const int k = static_cast<int>(sources.size());
  MsBfsResult out;
  out.levels.assign(k, std::vector<index_t>(n, -1));
  if (k == 0) return out;
  if (k > 64) {
    throw std::invalid_argument("ms_bfs: at most 64 sources per batch");
  }

  std::vector<std::uint64_t> seen(n, 0);   // bit s: visited by source s
  std::vector<std::uint64_t> visit(n, 0);  // current frontier membership
  std::vector<std::uint64_t> next(n, 0);
  std::vector<index_t> frontier;  // vertices with visit != 0
  for (int s = 0; s < k; ++s) {
    const index_t src = sources[s];
    seen[src] |= std::uint64_t{1} << s;
    if (visit[src] == 0) frontier.push_back(src);
    visit[src] |= std::uint64_t{1} << s;
    out.levels[s][src] = 0;
  }

  for (index_t level = 1; !frontier.empty(); ++level) {
    ++out.rounds;
    // Expand: every frontier vertex broadcasts its source set to its
    // out-neighbors (one edge scan shared by all k traversals).
    parallel_for(
        static_cast<index_t>(frontier.size()),
        [&](index_t fi) {
          const index_t u = frontier[fi];
          const std::uint64_t w = visit[u];
          for (offset_t i = out_edges.row_ptr[u];
               i < out_edges.row_ptr[u + 1]; ++i) {
            const index_t v = out_edges.col_idx[i];
            // Only sources that have not seen v yet matter; pre-filtering
            // avoids most atomics on converged vertices.
            const std::uint64_t fresh = w & ~atomic_load(&seen[v]);
            if (fresh != 0) atomic_or(&next[v], fresh);
          }
        },
        pool, /*chunk=*/32);

    // Fold: commit newly discovered (vertex, source) pairs.
    frontier.clear();
    for (index_t v = 0; v < n; ++v) {
      const std::uint64_t fresh = next[v] & ~seen[v];
      next[v] = 0;
      if (fresh == 0) continue;
      seen[v] |= fresh;
      visit[v] = fresh;
      frontier.push_back(v);
      std::uint64_t bits = fresh;
      while (bits != 0) {
        const int s = std::countr_zero(bits);
        bits &= bits - 1;
        out.levels[s][v] = level;
      }
    }
  }
  return out;
}

/// Tiled multi-source BFS over a prebuilt tiled transpose: `ta` must be
/// the tiled form of transpose(out_edges) with nonzero (typically unit)
/// values, and square — the serving layer keeps exactly this structure
/// resident so repeated BFS batches skip the transpose + conversion cost.
/// Each level is one block SpMSpM — y = Aᵀx expands every source's
/// frontier along out-edges in a single matrix pass, and the per-slot
/// active words of the frontier block are exactly the 64-bit source sets
/// of the bit-parallel formulation. Levels and rounds match ms_bfs
/// exactly. At most 64 sources.
template <typename T>
MsBfsResult ms_bfs_tiled_on(const TileMatrix<T>& ta,
                            const std::vector<index_t>& sources,
                            ThreadPool* pool = nullptr) {
  if (ta.rows != ta.cols) {
    throw std::invalid_argument("ms_bfs_tiled_on: matrix must be square");
  }
  const index_t n = ta.cols;
  const auto k = static_cast<index_t>(sources.size());
  MsBfsResult out;
  out.levels.assign(static_cast<std::size_t>(k),
                    std::vector<index_t>(static_cast<std::size_t>(n), -1));
  if (k == 0) return out;
  if (k > TileVectorBlock<T>::kMaxLanes) {
    throw std::invalid_argument(
        "ms_bfs_tiled_on: at most 64 sources per batch");
  }

  std::vector<std::uint64_t> seen(static_cast<std::size_t>(n), 0);
  std::vector<SparseVec<T>> x(static_cast<std::size_t>(k), SparseVec<T>(n));
  for (index_t s = 0; s < k; ++s) {
    const index_t src = sources[static_cast<std::size_t>(s)];
    seen[static_cast<std::size_t>(src)] |= std::uint64_t{1} << s;
    out.levels[static_cast<std::size_t>(s)][static_cast<std::size_t>(src)] = 0;
    x[static_cast<std::size_t>(s)].push(src, T{1});
  }

  SpmspvWorkspace<T> ws;
  bool any = true;
  for (index_t level = 1; any; ++level) {
    ++out.rounds;
    const TileVectorBlock<T> xb =
        TileVectorBlock<T>::from_sparse(x, ta.nt, pool);
    std::vector<SparseVec<T>> ys = tile_spmspm(ta, xb, ws, pool);
    // Fold per lane: lane s owns bit s of every seen word and its own
    // levels row, so lanes only contend on the atomic word OR.
    parallel_for(
        k,
        [&](index_t s) {
          const auto si = static_cast<std::size_t>(s);
          const std::uint64_t bit = std::uint64_t{1} << s;
          SparseVec<T> next(n);
          for (index_t v : ys[si].idx) {
            if ((atomic_load(&seen[static_cast<std::size_t>(v)]) & bit) != 0) {
              continue;
            }
            atomic_or(&seen[static_cast<std::size_t>(v)], bit);
            out.levels[si][static_cast<std::size_t>(v)] = level;
            next.push(v, T{1});
          }
          x[si] = std::move(next);
        },
        pool, /*chunk=*/1);
    any = false;
    for (index_t s = 0; s < k; ++s) {
      any = any || x[static_cast<std::size_t>(s)].nnz() > 0;
    }
  }
  return out;
}

/// Builds the tiled transpose pattern (the engine expands j -> i for
/// A[i][j] != 0, so reaching out-neighbors needs A = transpose(out_edges);
/// values become unit weights — the BFS only cares about the pattern) and
/// runs ms_bfs_tiled_on over it. One-shot convenience; callers with a
/// resident matrix use ms_bfs_tiled_on directly.
template <typename T>
MsBfsResult ms_bfs_tiled(const Csr<T>& out_edges,
                         const std::vector<index_t>& sources,
                         SpmspvConfig cfg = {}, ThreadPool* pool = nullptr) {
  Csr<T> at = out_edges.transpose();
  for (auto& v : at.vals) v = T{1};
  const TileMatrix<T> ta =
      TileMatrix<T>::from_csr(at, cfg.nt, cfg.extract_threshold);
  return ms_bfs_tiled_on(ta, sources, pool);
}

}  // namespace tilespmspv
