// Public entry point for repeated SpMSpV with one matrix: preprocess once
// (tiling + very-sparse extraction, in both orientations), then multiply
// against many sparse vectors with automatic kernel selection. This is the
// API the examples and the BFS-style applications use.
//
// The paper provides two forms of the kernel (§3.2.3) — matrix-driven
// CSR-SpMSpV and vector-driven CSC-SpMSpV — "automatically selected"
// (§1, §3.1) by the sparsity of the input vector. The CSR form touches
// every tile row's metadata but streams payloads contiguously, winning for
// denser vectors; the CSC form's work is proportional to the active
// columns only, winning when x is very sparse. The crossover threshold
// mirrors the 0.01 sparsity constant of the BFS selector.
//
// SemiringOperator is the same preprocessing for a GraphBLAS semiring
// (core/semiring.hpp): it runs the CSC form with the semiring as its
// policy, for SSSP (min-plus), reachability (or-and) and reliability
// (max-times).
#pragma once

#include <utility>

#include "baselines/tile_spmv.hpp"
#include "core/tile_spmspv.hpp"
#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// Which kernel a multiply should use.
enum class SpmspvKernel {
  kAuto,      // select by vector sparsity (paper behaviour)
  kCsr,       // matrix-driven (paper Alg. 4)
  kCsc,       // vector-driven (paper §3.2.3 CSC-SpMSpV)
  kDenseSpmv, // densify x and run tiled SpMV (Li et al. [31] adaptive tier)
};

/// Preprocessing / execution knobs (paper defaults).
struct SpmspvConfig {
  /// Tile size; 16 lets one byte hold both 4-bit local indices (§3.2.1).
  index_t nt = 16;
  /// Tiles with at most this many nonzeros are extracted to COO ("a couple
  /// of nonzeros"; 0 disables extraction).
  index_t extract_threshold = 2;
  /// Kernel choice; kAuto switches on vector sparsity.
  SpmspvKernel kernel = SpmspvKernel::kAuto;
  /// Vector sparsity below which kAuto picks the CSC form (the same 0.01
  /// constant the BFS selector uses).
  double csc_sparsity_threshold = 0.01;
  /// Vector sparsity at or above which kAuto densifies x and runs the
  /// tiled SpMV instead — the adaptive SpMV/SpMSpV selection of Li et
  /// al. (TPDS'21), which the paper cites as the related strategy: once x
  /// is nearly dense, per-element sparsity bookkeeping stops paying.
  double spmv_density_threshold = 0.25;
};

/// Owns the tiled matrix (both orientations) and the reusable multiply
/// workspace.
template <typename T = value_t>
class SpmspvOperator {
 public:
  SpmspvOperator(const Csr<T>& a, SpmspvConfig cfg = {},
                 ThreadPool* pool = nullptr)
      : cfg_(cfg),
        n_(a.cols),
        tiled_(TileMatrix<T>::from_csr(a, cfg.nt, cfg.extract_threshold)),
        tiled_t_(TileMatrix<T>::from_csr(a.transpose(), cfg.nt,
                                         cfg.extract_threshold)),
        pool_(pool) {}

  /// Adopts pre-built tiled forms (e.g. mmapped from a v2 tile file — the
  /// zero-copy serving path). `tiled_t` must be the tiling of Aᵀ with the
  /// same nt; cfg.nt / cfg.extract_threshold are ignored (baked in at
  /// conversion). Without a transpose part the CSC kernel is unavailable,
  /// so kAuto degrades to the CSR form for very sparse vectors.
  SpmspvOperator(TileMatrix<T> tiled, TileMatrix<T> tiled_t,
                 SpmspvConfig cfg = {}, ThreadPool* pool = nullptr)
      : cfg_(cfg),
        n_(tiled.cols),
        tiled_(std::move(tiled)),
        tiled_t_(std::move(tiled_t)),
        pool_(pool) {
    cfg_.nt = tiled_.nt;
    has_transpose_ = tiled_t_.rows == tiled_.cols &&
                     tiled_t_.cols == tiled_.rows && tiled_t_.nt == tiled_.nt;
  }

  /// y = A x. The sparse input is tiled on the fly (O(nnz(x) + n/nt)).
  SparseVec<T> multiply(const SparseVec<T>& x) {
    const TileVector<T> xt = TileVector<T>::from_sparse(x, cfg_.nt);
    return multiply(xt);
  }

  /// y = A x when the caller already holds x in tiled form (e.g. iterative
  /// algorithms that keep vectors tiled across steps).
  SparseVec<T> multiply(const TileVector<T>& x) {
    switch (select(x)) {
      case SpmspvKernel::kCsc:
        return tile_spmspv_csc(tiled_t_, x, ws_, pool_);
      case SpmspvKernel::kDenseSpmv: {
        // Densify and run the tiled SpMV: every non-empty matrix tile is
        // computed, with no vector-tile skipping.
        std::vector<T> xd(n_, T{});
        for (index_t t = 0; t < x.num_tiles(); ++t) {
          const index_t slot = x.x_ptr[t];
          if (slot == kEmptyTile) continue;
          const index_t base = t * x.nt;
          for (index_t j = 0; j < x.nt && base + j < n_; ++j) {
            xd[base + j] = x.x_tile[slot * x.nt + j];
          }
        }
        std::vector<T> yd;
        return tile_spmv(tiled_, xd, yd, pool_);
      }
      default:
        return tile_spmspv(tiled_, x, ws_, pool_);
    }
  }

  /// y<mask> = A x with a structural output mask (GraphBLAS fused form):
  /// only positions where mask_dense[r] != complement are emitted. Runs
  /// the CSR-form kernel (the mask applies at the gather).
  SparseVec<T> multiply_masked(const TileVector<T>& x,
                               const std::vector<bool>& mask_dense,
                               bool complement = false) {
    return tile_spmspv_masked(tiled_, x, mask_dense, complement, ws_, pool_);
  }

  SparseVec<T> multiply_masked(const SparseVec<T>& x,
                               const std::vector<bool>& mask_dense,
                               bool complement = false) {
    const TileVector<T> xt = TileVector<T>::from_sparse(x, cfg_.nt);
    return multiply_masked(xt, mask_dense, complement);
  }

  /// The kernel kAuto would pick for this input (exposed for tests and for
  /// the benchmark harnesses' reporting).
  SpmspvKernel select(const TileVector<T>& x) const {
    if (cfg_.kernel != SpmspvKernel::kAuto) return cfg_.kernel;
    const double sparsity = x.sparsity();
    if (sparsity < cfg_.csc_sparsity_threshold) {
      return has_transpose_ ? SpmspvKernel::kCsc : SpmspvKernel::kCsr;
    }
    if (sparsity >= cfg_.spmv_density_threshold) {
      return SpmspvKernel::kDenseSpmv;
    }
    return SpmspvKernel::kCsr;
  }

  const TileMatrix<T>& matrix() const { return tiled_; }
  const TileMatrix<T>& matrix_transposed() const { return tiled_t_; }

 private:
  SpmspvConfig cfg_;
  index_t n_;
  TileMatrix<T> tiled_;    // A, CSR-of-tiles
  TileMatrix<T> tiled_t_;  // Aᵀ, CSR-of-tiles == CSC-of-tiles view of A
  bool has_transpose_ = true;  // false on mapped files without a Aᵀ part
  SpmspvWorkspace<T> ws_;
  ThreadPool* pool_;
};

/// y = A ⊗ x over semiring S, for repeated multiplies with one matrix:
/// tiles Aᵀ once and runs the CSC form with S as its policy, on one
/// hoisted workspace and one hoisted tiled input vector.
template <typename S, typename T = typename S::value_type>
class SemiringOperator {
 public:
  SemiringOperator(const Csr<T>& a, index_t nt = 16,
                   index_t extract_threshold = 2, ThreadPool* pool = nullptr)
      : nt_(nt),
        tiled_t_(TileMatrix<T>::from_csr(a.transpose(), nt,
                                         extract_threshold)),
        pool_(pool) {}

  /// The result holds every output whose value differs from S::zero().
  SparseVec<T> multiply(const SparseVec<T>& x) {
    tile_vector_for_semiring(x);
    return tile_spmspv_csc<T, S>(tiled_t_, xt_, ws_, pool_);
  }

 private:
  /// TileVector's empty slots read as T{}; for semirings whose identity is
  /// not T{} (min-plus!) the padding inside non-empty tiles must be
  /// S::zero() instead, so the tile is built here with explicit fill.
  void tile_vector_for_semiring(const SparseVec<T>& x) {
    xt_.n = x.n;
    xt_.nt = nt_;
    xt_.nnz = static_cast<index_t>(x.idx.size());
    xt_.x_ptr.assign(ceil_div(x.n, nt_), kEmptyTile);
    index_t slots = 0;
    for (index_t i : x.idx) {
      index_t& p = xt_.x_ptr[i / nt_];
      if (p == kEmptyTile) p = slots++;
    }
    xt_.x_tile.assign(static_cast<std::size_t>(slots) * nt_, S::zero());
    for (std::size_t k = 0; k < x.idx.size(); ++k) {
      const index_t i = x.idx[k];
      xt_.x_tile[static_cast<std::size_t>(xt_.x_ptr[i / nt_]) * nt_ +
                 i % nt_] = x.vals[k];
    }
  }

  index_t nt_;
  TileMatrix<T> tiled_t_;
  TileVector<T> xt_;
  SpmspvWorkspace<T, S> ws_;
  ThreadPool* pool_;
};

}  // namespace tilespmspv
