// Tiled sparse vector storage (paper §3.2.2, Fig. 3).
//
// A length-n vector is cut into n/nt tiles. Empty tiles are dropped; the
// remaining tiles are stored densely and contiguously in `x_tile`, while
// `x_ptr` maps each tile slot to its compact position (or -1 when empty).
// Element i is recovered as x_tile[x_ptr[i/nt]*nt + i%nt] — the O(1)
// positioning the TileSpMSpV kernel relies on to skip work. `tiles` is the
// inverse map, the non-empty tile ids in slot order, so vector-driven work
// walks x's non-empty tiles without scanning all ceil(n/nt) slots.
#pragma once

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "formats/sparse_vector.hpp"
#include "formats/validate.hpp"
#include "util/types.hpp"

namespace tilespmspv {

template <typename T = value_t>
struct TileVector {
  // The empty-tile sentinel (paper Fig. 3) relies on x_ptr holding -1 for
  // dropped slots, so the index type must be signed.
  static_assert(std::is_signed_v<index_t> && kEmptyTile < 0,
                "x_ptr needs a negative empty-tile sentinel");

  index_t n = 0;              // logical length
  index_t nt = 16;            // tile size
  index_t nnz = 0;            // nonzeros of the source vector
  std::vector<index_t> x_ptr; // ceil(n/nt) slots: compact index or kEmptyTile
  std::vector<T> x_tile;      // non-empty tiles, nt values each
  std::vector<index_t> tiles; // tile id of each slot; slot order = tile order

  /// True vector sparsity nnz/n (the quantity the paper's kernel
  /// selection compares against its thresholds).
  double sparsity() const {
    return n == 0 ? 0.0 : static_cast<double>(nnz) / static_cast<double>(n);
  }

  index_t num_tiles() const { return static_cast<index_t>(x_ptr.size()); }
  index_t num_nonempty_tiles() const {
    return static_cast<index_t>(x_tile.size()) / nt;
  }

  /// Fraction of tile slots that are non-empty — the quantity the paper's
  /// kernel-selection heuristics reason about.
  double tile_density() const {
    return x_ptr.empty() ? 0.0
                         : static_cast<double>(num_nonempty_tiles()) /
                               static_cast<double>(num_tiles());
  }

  /// O(1) random access (zero for elements in empty tiles).
  T at(index_t i) const {
    assert(i >= 0 && i < n);
    const index_t slot = x_ptr[i / nt];
    return slot == kEmptyTile ? T{} : x_tile[slot * nt + i % nt];
  }

  /// Builds the tiled form from a plain sparse vector. Tolerates input
  /// that falls short of SparseVec's invariant — unsorted indices,
  /// duplicates (later entries win) and explicit zero values: slots are
  /// numbered in tile order regardless of input order, and nnz counts the
  /// stored values that differ from `fill`. Throws std::out_of_range on an
  /// index outside [0, n).
  ///
  /// `fill` is the value of the unset positions inside non-empty tiles:
  /// T{} for plus-times, S::zero() for a semiring whose identity is not
  /// T{} (min-plus). Only a T{}-filled vector meets validate_tile_vector's
  /// padding and nnz invariants; the slot structure is the same either way.
  static TileVector from_sparse(const SparseVec<T>& x, index_t nt,
                                T fill = T{}) {
    TileVector v;
    v.n = x.n;
    v.nt = nt;
    v.x_ptr.assign(ceil_div(x.n, nt), kEmptyTile);
    // Pass 1: number the touched tiles by first appearance, which is tile
    // order when x is sorted (SparseVec's invariant); otherwise sort the
    // tile list and renumber, so the numbering is the paper's 0,1,2,... in
    // tile order either way.
    v.tiles.reserve(std::min(x.idx.size(), v.x_ptr.size()));
    bool in_order = true;
    for (const index_t i : x.idx) {
      if (i < 0 || i >= x.n) {
        throw std::out_of_range("TileVector::from_sparse: index " +
                                std::to_string(i) + " outside [0, " +
                                std::to_string(x.n) + ")");
      }
      const index_t t = i / nt;
      if (v.x_ptr[t] != kEmptyTile) continue;
      if (!v.tiles.empty() && t < v.tiles.back()) in_order = false;
      v.x_ptr[t] = static_cast<index_t>(v.tiles.size());
      v.tiles.push_back(t);
    }
    if (!in_order) {
      std::sort(v.tiles.begin(), v.tiles.end());
      for (std::size_t k = 0; k < v.tiles.size(); ++k) {
        v.x_ptr[v.tiles[k]] = static_cast<index_t>(k);
      }
    }
    // Tiles are padded to a full nt, so a nonzero in the last partial tile
    // never reads past n.
    v.x_tile.assign(v.tiles.size() * static_cast<std::size_t>(nt), fill);
    index_t stored = 0;
    for (std::size_t k = 0; k < x.idx.size(); ++k) {
      const index_t i = x.idx[k];
      T& cell = v.x_tile[static_cast<std::size_t>(v.x_ptr[i / nt]) * nt +
                         i % nt];
      if (cell != fill) --stored;  // duplicate overwrite: retract old count
      cell = x.vals[k];
      if (cell != fill) ++stored;
    }
    v.nnz = stored;
    if (fill == T{}) {
      TILESPMSPV_POSTCONDITION(validate_tile_vector(v),
                               "TileVector::from_sparse");
    }
    return v;
  }

  /// Converts back to the plain sparse form (exact zeros inside non-empty
  /// tiles are dropped, matching SparseVec's invariant).
  SparseVec<T> to_sparse() const {
    SparseVec<T> x(n);
    for (std::size_t slot = 0; slot < tiles.size(); ++slot) {
      const index_t base = tiles[slot] * nt;
      for (index_t j = 0; j < nt && base + j < n; ++j) {
        const T v = x_tile[slot * nt + j];
        if (v != T{}) x.push(base + j, v);
      }
    }
    return x;
  }
};

namespace detail {

/// Rejects an x the kernels would index out of bounds: it must have one
/// entry per input index of the matrix (`in_n`), the matrix's tile size, a
/// slot map over ceil(in_n/nt) tiles and one tile-list entry per stored
/// tile. O(1); validate_tile_vector checks the contents.
template <typename T>
void require_operand(const TileVector<T>& x, index_t in_n, index_t nt,
                     const char* who) {
  if (x.n != in_n || x.nt != nt ||
      x.x_ptr.size() != static_cast<std::size_t>(ceil_div(in_n, nt))) {
    throw std::invalid_argument(
        std::string(who) + ": x has length " + std::to_string(x.n) +
        " and tile size " + std::to_string(x.nt) + ", the matrix takes " +
        std::to_string(in_n) + " and " + std::to_string(nt));
  }
  if (x.tiles.size() != static_cast<std::size_t>(x.num_nonempty_tiles())) {
    throw std::invalid_argument(std::string(who) +
                                ": x's tile list does not cover its slots");
  }
}

}  // namespace detail

}  // namespace tilespmspv
