// Betweenness centrality for unweighted graphs — the second graph
// algorithm the paper's introduction cites as SpMSpV-accelerated
// (Solomonik et al., SC'17 scale it with sparse matrix multiplication).
//
// Brandes' algorithm in its level-synchronous algebraic form: the forward
// sweep counts shortest paths with one SpMSpV per level (sigma_next =
// A · sigma_frontier, masked to the new level), the backward sweep
// accumulates dependencies level by level. The per-level frontiers are
// kept as sparse vectors throughout, which is exactly the workload
// SpMSpV exists for.
//
// Multi-source runs batch the forward sweep through the block-of-k SpMSpM
// engine: up to 64 sources' sigma frontiers ride one TileVectorBlock per
// level, so the matrix traversal, tile metadata, and payload bytes are
// paid once per level for the whole block instead of once per source.
#pragma once

#include <algorithm>
#include <vector>

#include "core/spmspv.hpp"
#include "core/tile_spmspm.hpp"
#include "formats/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_vector_block.hpp"
#include "util/types.hpp"

namespace tilespmspv {

namespace detail {

/// Brandes backward sweep: delta[v] = sum over successors w
/// (level[w] = level[v]+1, edge v->w) of sigma[v]/sigma[w]*(1 + delta[w]),
/// walking the stored per-level frontiers deepest-first.
/// Successors of v: out-neighbors at the next level. Out-neighbors of v
/// are column v of A = row v of Aᵀ; the operator's transposed tile matrix
/// exists, but a plain CSR row scan keeps this reference-clear (the
/// forward sweep carries the SpMSpV work).
template <typename T>
std::vector<double> bc_backward(const Csr<T>& a,
                                const std::vector<index_t>& level,
                                const std::vector<double>& sigma,
                                const std::vector<SparseVec<T>>& frontiers,
                                index_t source) {
  std::vector<double> delta(static_cast<std::size_t>(a.rows), 0.0);
  for (auto it = frontiers.rbegin(); it != frontiers.rend(); ++it) {
    for (index_t v : it->idx) {
      double acc = 0.0;
      for (offset_t i = a.row_ptr[v]; i < a.row_ptr[v + 1]; ++i) {
        const index_t w = a.col_idx[i];
        if (level[w] == level[v] + 1 && sigma[w] > 0.0) {
          acc += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      delta[v] = acc;
    }
  }
  delta[source] = 0.0;
  return delta;
}

}  // namespace detail

/// Single-source dependency accumulation (one Brandes iteration).
/// Returns the dependency score delta[v] for every v != source.
template <typename T = value_t>
std::vector<double> bc_single_source(SpmspvOperator<T>& op,
                                     const Csr<T>& a, index_t source) {
  const index_t n = a.rows;
  std::vector<index_t> level(n, -1);
  std::vector<double> sigma(n, 0.0);  // shortest-path counts
  level[source] = 0;
  sigma[source] = 1.0;

  // Forward: one SpMSpV per level, carrying sigma values in the frontier.
  std::vector<SparseVec<T>> frontiers;
  SparseVec<T> x(n);
  x.push(source, T{1});
  frontiers.push_back(x);
  for (index_t d = 1; x.nnz() > 0; ++d) {
    const SparseVec<T> y = op.multiply(x);  // y_i = sum of sigma over preds
    SparseVec<T> next(n);
    for (std::size_t k = 0; k < y.idx.size(); ++k) {
      const index_t v = y.idx[k];
      if (level[v] < 0) {
        level[v] = d;
        sigma[v] = static_cast<double>(y.vals[k]);
        next.push(v, y.vals[k]);
      }
    }
    x = std::move(next);
    if (x.nnz() > 0) frontiers.push_back(x);
  }

  return detail::bc_backward(a, level, sigma, frontiers, source);
}

/// Per-source dependency accumulation for a block of <= 64 sources. The
/// forward sweeps run level-synchronously through tile_spmspm — one block
/// multiply per level for all lanes — then each lane runs its backward
/// sweep independently (parallel over lanes). Per source, the result
/// equals bc_single_source up to floating-point summation order.
template <typename T = value_t>
std::vector<std::vector<double>> bc_multi_source(
    SpmspvOperator<T>& op, const Csr<T>& a,
    const std::vector<index_t>& sources, ThreadPool* pool = nullptr) {
  const index_t n = a.rows;
  const auto k = static_cast<index_t>(sources.size());
  assert(k <= TileVectorBlock<T>::kMaxLanes);
  const index_t nt = op.matrix().nt;

  std::vector<std::vector<index_t>> level(
      static_cast<std::size_t>(k), std::vector<index_t>(n, -1));
  std::vector<std::vector<double>> sigma(
      static_cast<std::size_t>(k), std::vector<double>(n, 0.0));
  std::vector<std::vector<SparseVec<T>>> hist(static_cast<std::size_t>(k));
  std::vector<SparseVec<T>> x(static_cast<std::size_t>(k), SparseVec<T>(n));
  for (index_t s = 0; s < k; ++s) {
    const index_t src = sources[static_cast<std::size_t>(s)];
    level[static_cast<std::size_t>(s)][src] = 0;
    sigma[static_cast<std::size_t>(s)][src] = 1.0;
    x[static_cast<std::size_t>(s)].push(src, T{1});
    hist[static_cast<std::size_t>(s)].push_back(x[static_cast<std::size_t>(s)]);
  }

  // Forward, batched: lanes whose traversal has converged carry empty
  // frontiers (empty lanes in the block cost nothing), so the loop runs
  // until the deepest lane finishes.
  SpmspvWorkspace<T> ws;
  bool any = k > 0;
  for (index_t d = 1; any; ++d) {
    const TileVectorBlock<T> xb = TileVectorBlock<T>::from_sparse(x, nt, pool);
    std::vector<SparseVec<T>> ys = tile_spmspm(op.matrix(), xb, ws, pool);
    // Commit per lane: lanes own disjoint level/sigma/frontier state.
    parallel_for(
        k,
        [&](index_t s) {
          const auto si = static_cast<std::size_t>(s);
          const SparseVec<T>& y = ys[si];
          SparseVec<T> next(n);
          for (std::size_t e = 0; e < y.idx.size(); ++e) {
            const index_t v = y.idx[e];
            if (level[si][v] < 0) {
              level[si][v] = d;
              sigma[si][v] = static_cast<double>(y.vals[e]);
              next.push(v, y.vals[e]);
            }
          }
          x[si] = std::move(next);
          if (x[si].nnz() > 0) hist[si].push_back(x[si]);
        },
        pool, /*chunk=*/1);
    any = false;
    for (index_t s = 0; s < k; ++s) {
      any = any || x[static_cast<std::size_t>(s)].nnz() > 0;
    }
  }

  // Backward, per lane.
  std::vector<std::vector<double>> deltas(static_cast<std::size_t>(k));
  parallel_for(
      k,
      [&](index_t s) {
        const auto si = static_cast<std::size_t>(s);
        deltas[si] = detail::bc_backward(a, level[si], sigma[si], hist[si],
                                         sources[si]);
      },
      pool, /*chunk=*/1);
  return deltas;
}

/// Betweenness centrality from a set of source vertices (exact when
/// `sources` covers every vertex; a sampled approximation otherwise).
/// For undirected graphs pass halve=true to apply the conventional /2.
template <typename T = value_t>
std::vector<double> betweenness_centrality(const Csr<T>& a,
                                           const std::vector<index_t>& sources,
                                           bool halve = true,
                                           SpmspvConfig cfg = {},
                                           ThreadPool* pool = nullptr) {
  // Note the adjacency convention: op.multiply expands along edges j -> i
  // for A[i][j] != 0. The backward sweep above scans rows of `a` as
  // out-neighbors, which matches symmetric (undirected) graphs; for
  // directed graphs pass the pattern-symmetrized matrix.
  //
  // Path counting needs unit weights, so the operator is built on the 0/1
  // pattern of `a` regardless of its stored values.
  Csr<T> pattern = a;
  for (auto& v : pattern.vals) v = T{1};
  SpmspvOperator<T> op(pattern, cfg, pool);
  std::vector<double> bc(static_cast<std::size_t>(a.rows), 0.0);
  const auto ns = static_cast<index_t>(sources.size());
  const index_t block = TileVectorBlock<T>::kMaxLanes;
  for (index_t base = 0; base < ns; base += block) {
    const auto e = std::min<index_t>(base + block, ns);
    const std::vector<index_t> chunk(
        sources.begin() + static_cast<std::ptrdiff_t>(base),
        sources.begin() + static_cast<std::ptrdiff_t>(e));
    const std::vector<std::vector<double>> deltas =
        bc_multi_source(op, a, chunk, pool);
    for (const auto& delta : deltas) {
      for (index_t v = 0; v < a.rows; ++v) {
        bc[static_cast<std::size_t>(v)] += delta[static_cast<std::size_t>(v)];
      }
    }
  }
  if (halve) {
    for (double& v : bc) v *= 0.5;
  }
  return bc;
}

}  // namespace tilespmspv
