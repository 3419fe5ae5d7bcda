// Block-of-k tiled sparse vectors — the SoA operand of the SpMSpM engine
// (core/tile_spmspm.hpp). k <= 64 vectors of equal length share one tile
// grid: `x_ptr` maps each tile slot to a compact payload position exactly
// like TileVector, but a slot is kept if ANY lane has a nonzero there, and
// `active` stores per-slot lane bitmasks (bit v, lsb-first, = lane v is
// non-empty in this tile) — the nt×k bit-planes the multi-source apps'
// 64-bit source words ride. The payload is lane-interleaved: element i of
// lane v lives at x_tile[(x_ptr[i/nt]*nt + i%nt)*k + v], so one matrix
// nonzero touches k consecutive doubles — the unit stride the engine's
// lane panels (simd::lane_panel_update, lane_panel16_update) need.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "formats/sparse_vector.hpp"
#include "formats/validate.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_vector.hpp"
#include "util/types.hpp"

namespace tilespmspv {

template <typename T = value_t>
struct TileVectorBlock {
  /// Lane capacity: one bit per lane in a 64-bit active word, matching the
  /// bit-parallel MS-BFS convention (bit s = source s, lsb-first).
  static constexpr index_t kMaxLanes = 64;

  index_t n = 0;    // logical length of every lane
  index_t nt = 16;  // tile size
  index_t k = 0;    // lanes (vectors) in the block, <= kMaxLanes
  std::vector<index_t> x_ptr;  // ceil(n/nt) slots: compact index or kEmptyTile
  std::vector<std::uint64_t> active;  // per slot: lane bitmask (bit v = lane v)
  std::vector<T> x_tile;  // non-empty tiles, nt*k lane-interleaved values each

  index_t num_tiles() const { return static_cast<index_t>(x_ptr.size()); }
  index_t num_nonempty_tiles() const {
    return k == 0 ? 0
                  : static_cast<index_t>(x_tile.size() /
                                         (static_cast<std::size_t>(nt) *
                                          static_cast<std::size_t>(k)));
  }

  /// O(1) random access to lane v (zero for elements in dropped tiles).
  T at(index_t v, index_t i) const {
    assert(v >= 0 && v < k && i >= 0 && i < n);
    const index_t slot = x_ptr[i / nt];
    if (slot == kEmptyTile) return T{};
    return x_tile[(static_cast<std::size_t>(slot) * nt +
                   static_cast<std::size_t>(i % nt)) *
                      static_cast<std::size_t>(k) +
                  static_cast<std::size_t>(v)];
  }

  /// Packs k already-tiled vectors (equal n and nt) into the SoA block.
  /// The tile-order slot numbering matches TileVector::from_sparse. Throws
  /// std::invalid_argument unless 0 <= k <= kMaxLanes and every lane has
  /// the first lane's length, tile size and a slot map to match.
  static TileVectorBlock from_tiled(const TileVector<T>* xs, index_t k,
                                    ThreadPool* pool = nullptr) {
    require_lanes(k, "from_tiled");
    TileVectorBlock b;
    b.k = k;
    if (k == 0) return b;
    b.n = xs[0].n;
    b.nt = xs[0].nt;
    const index_t tiles = ceil_div(b.n, b.nt);
    for (index_t v = 0; v < k; ++v) {
      if (xs[v].n != b.n || xs[v].nt != b.nt ||
          xs[v].x_ptr.size() != static_cast<std::size_t>(tiles)) {
        throw std::invalid_argument(
            "TileVectorBlock::from_tiled: lane " + std::to_string(v) +
            " has length " + std::to_string(xs[v].n) + " and tile size " +
            std::to_string(xs[v].nt) + "; lane 0 has " +
            std::to_string(b.n) + " and " + std::to_string(b.nt));
      }
    }
    b.active.assign(static_cast<std::size_t>(tiles), 0);
    b.x_ptr.assign(static_cast<std::size_t>(tiles), kEmptyTile);
    // Bit-planes: each slot's word is owned by one loop iteration, so the
    // lane OR needs no atomics.
    parallel_for(
        tiles,
        [&](index_t t) {
          std::uint64_t word = 0;
          for (index_t v = 0; v < k; ++v) {
            if (xs[v].x_ptr[t] != kEmptyTile) word |= std::uint64_t{1} << v;
          }
          b.active[static_cast<std::size_t>(t)] = word;
        },
        pool);
    // Compact slot numbering over the union of the lanes' non-empty tiles.
    index_t slots = 0;
    for (index_t t = 0; t < tiles; ++t) {
      if (b.active[static_cast<std::size_t>(t)] != 0) b.x_ptr[t] = slots++;
    }
    // Lane-interleaved payload fill; each non-empty slot owns a disjoint
    // nt*k region, so slots transpose their lanes' tiles in parallel.
    b.x_tile.assign(static_cast<std::size_t>(slots) * b.nt *
                        static_cast<std::size_t>(k),
                    T{});
    parallel_for(
        tiles,
        [&](index_t t) {
          const index_t slot = b.x_ptr[t];
          if (slot == kEmptyTile) return;
          T* dst = b.x_tile.data() + static_cast<std::size_t>(slot) * b.nt *
                                         static_cast<std::size_t>(k);
          std::uint64_t bits = b.active[static_cast<std::size_t>(t)];
          while (bits != 0) {
            const auto v = static_cast<index_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const T* src =
                xs[v].x_tile.data() +
                static_cast<std::size_t>(xs[v].x_ptr[t]) * b.nt;
            for (index_t i = 0; i < b.nt; ++i) {
              dst[static_cast<std::size_t>(i) * k + v] = src[i];
            }
          }
        },
        pool);
    TILESPMSPV_POSTCONDITION(validate_tile_vector_block(b),
                             "TileVectorBlock::from_tiled");
    return b;
  }

  static TileVectorBlock from_tiled(const std::vector<TileVector<T>>& xs,
                                    ThreadPool* pool = nullptr) {
    return from_tiled(xs.data(), static_cast<index_t>(xs.size()), pool);
  }

  /// Builds the block straight from plain sparse vectors; the per-lane
  /// TileVector conversions run in parallel (they are independent). A
  /// lane's conversion error (std::out_of_range on an index outside
  /// [0, n)) is rethrown on the caller, the first lane's first; more than
  /// kMaxLanes vectors, or lanes of different lengths, throw
  /// std::invalid_argument (the lane count before any lane is converted).
  static TileVectorBlock from_sparse(const std::vector<SparseVec<T>>& xs,
                                     index_t nt, ThreadPool* pool = nullptr) {
    require_lanes(static_cast<std::int64_t>(xs.size()), "from_sparse");
    const auto k = static_cast<index_t>(xs.size());
    std::vector<TileVector<T>> tiled(static_cast<std::size_t>(k));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(k));
    parallel_for(
        k,
        [&](index_t v) {
          const auto lane = static_cast<std::size_t>(v);
          try {
            tiled[lane] = TileVector<T>::from_sparse(xs[lane], nt);
          } catch (...) {
            errors[lane] = std::current_exception();
          }
        },
        pool, /*chunk=*/1);
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return from_tiled(tiled.data(), k, pool);
  }

  /// Extracts lane v back to plain sparse form (exact zeros dropped).
  SparseVec<T> to_sparse(index_t v) const {
    assert(v >= 0 && v < k);
    SparseVec<T> x(n);
    const std::uint64_t bit = std::uint64_t{1} << v;
    for (index_t t = 0; t < num_tiles(); ++t) {
      if ((active[static_cast<std::size_t>(t)] & bit) == 0) continue;
      const index_t base = t * nt;
      for (index_t j = 0; j < nt && base + j < n; ++j) {
        const T val = at(v, base + j);
        if (val != T{}) x.push(base + j, val);
      }
    }
    return x;
  }

 private:
  static void require_lanes(std::int64_t k, const char* who) {
    if (k < 0 || k > kMaxLanes) {
      throw std::invalid_argument(std::string("TileVectorBlock::") + who +
                                  ": " + std::to_string(k) +
                                  " lanes; a block holds at most " +
                                  std::to_string(kMaxLanes));
    }
  }
};

namespace detail {

/// require_operand for a block of at most kMaxLanes lanes: the slot map and
/// lane words must also cover ceil(in_n/nt) tiles.
template <typename T>
void require_operand(const TileVectorBlock<T>& x, index_t in_n, index_t nt,
                     const char* who) {
  const auto tiles = static_cast<std::size_t>(ceil_div(in_n, nt));
  if (x.n != in_n || x.nt != nt || x.k < 0 ||
      x.k > TileVectorBlock<T>::kMaxLanes || x.x_ptr.size() != tiles ||
      x.active.size() != tiles) {
    throw std::invalid_argument(
        std::string(who) + ": x has length " + std::to_string(x.n) +
        ", tile size " + std::to_string(x.nt) + " and " +
        std::to_string(x.k) + " lanes; the matrix takes " +
        std::to_string(in_n) + " and " + std::to_string(nt));
  }
}

}  // namespace detail

}  // namespace tilespmspv
