// Single-source shortest paths on the tiled SpMSpV primitive: sparse
// Bellman-Ford over the min-plus semiring. Each round relaxes exactly the
// vertices whose distance improved last round (the sparse frontier), with
// one semiring SpMSpV per round — the linear-algebra formulation of SSSP
// that GraphBLAS popularized, running on the paper's tiled storage.
#pragma once

#include <limits>
#include <vector>

#include "core/spmspv.hpp"
#include "formats/csr.hpp"
#include "util/types.hpp"

namespace tilespmspv {

struct SsspResult {
  std::vector<double> dist;  // +inf for unreachable
  int rounds = 0;            // relaxation rounds until fixpoint
};

/// `a` holds edge weights with the library's adjacency convention
/// (A[i][j] = weight of edge j -> i). Weights must be non-negative for
/// the round bound to be the graph's hop diameter; negative edges are
/// still handled as long as no negative cycle is reachable (plain
/// Bellman-Ford semantics, at most n-1 rounds enforced).
template <typename T = value_t>
SsspResult sssp(const Csr<T>& a, index_t source, index_t nt = 16,
                ThreadPool* pool = nullptr) {
  const index_t n = a.rows;
  SemiringOperator<MinPlus<T>, T> op(a, nt, /*extract_threshold=*/2, pool);

  SsspResult out;
  out.dist.assign(n, std::numeric_limits<double>::infinity());
  out.dist[source] = 0.0;

  SparseVec<T> frontier(n);
  frontier.push(source, T{0});
  while (frontier.nnz() > 0 && out.rounds < n) {
    ++out.rounds;
    const SparseVec<T> relaxed = op.multiply(frontier);
    SparseVec<T> next(n);
    for (std::size_t k = 0; k < relaxed.idx.size(); ++k) {
      const index_t v = relaxed.idx[k];
      const double d = static_cast<double>(relaxed.vals[k]);
      if (d < out.dist[v]) {
        out.dist[v] = d;
        next.push(v, relaxed.vals[k]);
      }
    }
    frontier = std::move(next);
  }
  return out;
}

}  // namespace tilespmspv
