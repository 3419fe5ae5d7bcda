// Public entry point for repeated SpMSpV with one matrix: preprocess once
// (tiling + very-sparse extraction, in both orientations), then multiply
// against many sparse vectors with automatic kernel selection. This is the
// API the examples and the BFS-style applications use.
//
// The paper provides two forms of the kernel (§3.2.3) — matrix-driven
// CSR-SpMSpV and vector-driven CSC-SpMSpV — "automatically selected"
// (§1, §3.1) by the input vector. The CSR form touches every tile row's
// metadata but streams payloads contiguously; the CSC form's work follows
// x's non-empty tiles only. Both forms' costs follow tiles, not nonzeros,
// so the selector compares x's tile occupancy (the fraction of non-empty
// tiles) with kCscTileDensity rather than the paper's 0.01 sparsity rule
// (EXPERIMENTS.md records the sweep that placed the cut).
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
  kAuto,      // select by vector sparsity and tile occupancy
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
  /// Kernel choice; kAuto switches on the vector's sparsity and tile
  /// occupancy.
  SpmspvKernel kernel = SpmspvKernel::kAuto;
};

/// Owns the tiled matrix (both orientations) and the reusable multiply
/// workspace.
template <typename T = value_t>
class SpmspvOperator {
 public:
  /// Tile occupancy (x.tile_density()) below which kAuto picks the CSC
  /// form; EXPERIMENTS.md (deviation D3) has the sweep that placed it.
  static constexpr double kCscTileDensity = 0.25;
  /// Vector sparsity at or above which kAuto densifies x and runs the
  /// tiled SpMV instead — the adaptive SpMV/SpMSpV selection of Li et
  /// al. (TPDS'21), which the paper cites as the related strategy: once x
  /// is nearly dense, per-element sparsity bookkeeping stops paying.
  static constexpr double kDenseSpmvSparsity = 0.25;

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
  /// algorithms that keep vectors tiled across steps). Throws
  /// std::invalid_argument unless x has one entry per column of A and the
  /// operator's tile size.
  SparseVec<T> multiply(const TileVector<T>& x) {
    switch (select(x)) {
      case SpmspvKernel::kCsc:
        return tile_spmspv_csc(tiled_t_, x, ws_, pool_);
      case SpmspvKernel::kDenseSpmv: {
        // Densify and run the tiled SpMV: every non-empty matrix tile is
        // computed, with no vector-tile skipping.
        detail::require_operand(x, n_, tiled_.nt, "SpmspvOperator::multiply");
        std::vector<T> xd(n_, T{});
        for (std::size_t slot = 0; slot < x.tiles.size(); ++slot) {
          const index_t base = x.tiles[slot] * x.nt;
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
    if (x.sparsity() >= kDenseSpmvSparsity) {
      return SpmspvKernel::kDenseSpmv;
    }
    return has_transpose_ && x.tile_density() < kCscTileDensity
               ? SpmspvKernel::kCsc
               : SpmspvKernel::kCsr;
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
/// hoisted workspace.
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
  /// x's unset positions inside its non-empty tiles read as S::zero(),
  /// which is not T{} for min-plus.
  SparseVec<T> multiply(const SparseVec<T>& x) {
    return tile_spmspv_csc<T, S>(
        tiled_t_, TileVector<T>::from_sparse(x, nt_, S::zero()), ws_, pool_);
  }

 private:
  index_t nt_;
  TileMatrix<T> tiled_t_;
  SpmspvWorkspace<T> ws_;
  ThreadPool* pool_;
};

}  // namespace tilespmspv
