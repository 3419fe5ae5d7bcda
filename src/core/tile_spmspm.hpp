// Block-of-k SpMSpM: Y = A X for a TileVectorBlock of k <= 64 sparse
// vectors sharing one traversal of the tiled matrix. The paper frames
// SpMSpV as the k = 1 corner of SpGEMM (§1); this engine is the register/
// cache-blocked middle ground: tile metadata is read once per block, each
// nonzero a.vals[z] is broadcast and FMA'd across the k lanes of a
// lane-interleaved accumulator (simd::axpy_lanes), and the per-slot active
// lane bitmasks of the block replace k separate x_ptr probes per tile.
//
// Structure mirrors tile_spmspv's three phases:
//   1. tiled part — one task per work-balanced tile-row chunk; each chunk
//      owns an nt×k accumulator block (per pool slot, hoisted in the
//      workspace) written to the rows×k dense output once per tile row,
//      with the row's union lane mask stored in row_mask;
//   2. extracted side COO — the CSR form's side pass (detail::side_pass)
//      at k lanes, so every lane's sum has one order on any pool or run;
//   3. gather — parallel over lanes; each lane counts its flagged tile
//      rows first (prefix sizing, no geometric reallocation), then emits
//      its nonzeros and restores the all-zero workspace invariant.
//
// Tiles where only a few of the k lanes are active take a per-entry
// bit-iteration path instead of the full-width broadcast, so a block of
// nearly disjoint vectors does not pay k-wide FMAs for one useful lane.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/tile_spmspv.hpp"
#include "formats/sparse_vector.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_chunks.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector_block.hpp"
#include "util/bitkernels.hpp"
#include "util/bitops.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// Reusable buffers for the block engine, following the SpmspvWorkspace
/// discipline: steady-state multiplies allocate nothing, and cost stays
/// proportional to the touched rows. Invariants between calls: y_block and
/// row_mask are all-zero (the gather restores them), the side lists are
/// empty; acc, active and range_ptr hold garbage.
template <typename T = value_t>
struct SpmspmWorkspace {
  std::vector<T> y_block;               // rows * k dense output, all-zero
  std::vector<std::uint64_t> row_mask;  // per tile row: union lane mask
  std::vector<T> acc;                   // pool slots * nt * k accumulators
  std::vector<index_t> active;          // x's non-empty tiles (phase 2)
  std::vector<index_t> range_ptr;       // side-pass range boundaries
  GatherScratch<T> gather;              // side-pass per-range lists

  void ensure(index_t rows, index_t tile_rows, index_t k, index_t nt,
              int pool_slots) {
    const std::size_t need_y =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(k);
    if (y_block.size() < need_y) y_block.resize(need_y, T{});
    if (row_mask.size() < static_cast<std::size_t>(tile_rows)) {
      row_mask.resize(static_cast<std::size_t>(tile_rows), 0);
    }
    const std::size_t need_acc = static_cast<std::size_t>(pool_slots) *
                                 static_cast<std::size_t>(nt) *
                                 static_cast<std::size_t>(k);
    if (acc.size() < need_acc) acc.resize(need_acc);
  }
};

namespace detail {

/// One tile row × one 4-lane group, register-resident accumulator panel.
template <typename T>
inline void panel_row(const T* vals, const std::uint8_t* cols, int n,
                      index_t k, int w, const T* x,
                      T* acc) {  // lint:hot-path
  if constexpr (std::is_same_v<T, double>) {
    simd::lane_panel_update(vals, cols, n, static_cast<int>(k), w, x, acc);
  } else {
    for (int i = 0; i < n; ++i) {
      const T a = vals[i];
      const T* xr = x + static_cast<std::size_t>(cols[i]) * k;
      for (int v = 0; v < w; ++v) acc[v] += a * xr[v];
    }
  }
}

/// Panel accumulation of one tile into the nt×k block: rows outer, active
/// 4-lane groups inner. Each group's accumulator panel stays in a register
/// across the row's entries (one load/store per row × group instead of per
/// nonzero), and groups with no active lane are skipped entirely — tiles
/// where only part of the block is live neither read nor write the dead
/// lanes' payload at nibble granularity. `runs` may be null (no run list).
template <typename T>
inline void block_tile_accumulate(const T* vals, const std::uint8_t* cols,
                                  const std::uint16_t* rp,
                                  const std::uint8_t* runs, int nruns,
                                  index_t nt, index_t k, std::uint64_t word,
                                  const T* xt, T* acc) {  // lint:hot-path
  const auto row = [&](int lr, int begin, int n) {
    if (n == 0) return;
    T* arow = acc + static_cast<std::size_t>(lr) * k;
    index_t g = 0;
    if constexpr (std::is_same_v<T, double>) {
      // Nearly full 16-lane groups take the wide panel (one entry pass
      // covers 16 lanes, four FMA chains); sparser groups drop to 4-lane
      // nibbles so dead lanes are skipped at finer granularity. The wide
      // panel multiplies its few dead lanes against the zeros the block
      // stores for them — same products per active lane either way.
      for (; g + 16 <= k; g += 16) {
        const std::uint64_t m16 = (word >> g) & 0xFFFFu;
        if (m16 == 0) continue;
        if (popcount(m16) >= 12) {
          simd::lane_panel16_update(vals + begin, cols + begin, n,
                                    static_cast<int>(k), xt + g, arow + g);
          continue;
        }
        for (index_t s = g; s < g + 16; s += 4) {
          if (((word >> s) & 0xFu) == 0) continue;
          panel_row(vals + begin, cols + begin, n, k, 4, xt + s, arow + s);
        }
      }
    }
    for (; g < k; g += 4) {
      const int w = static_cast<int>(k - g < 4 ? k - g : 4);
      if (((word >> g) & ((std::uint64_t{1} << w) - 1)) == 0) continue;
      panel_row(vals + begin, cols + begin, n, k, w, xt + g, arow + g);
    }
  };
  if (runs != nullptr) {
    int pos = 0;
    for (int ri = 0; ri < nruns; ++ri) {
      const std::size_t rb = static_cast<std::size_t>(ri) * 3;
      row(runs[rb], pos, runs[rb + 1] + 1);
      pos += runs[rb + 1] + 1;
    }
    return;
  }
  for (index_t lr = 0; lr < nt; ++lr) {
    row(static_cast<int>(lr), rp[lr], rp[lr + 1] - rp[lr]);
  }
}

/// Sparse-lane accumulation: iterate the tile's entries once and update
/// only the lanes set in `word`. Same per-lane entry order as the dense
/// path (entries outer), so the two paths sum identically per lane.
template <typename T>
inline void block_tile_accumulate_lanes(const T* vals, const std::uint8_t* cols,
                                        const std::uint16_t* rp,
                                        const std::uint8_t* runs, int nruns,
                                        index_t nt, index_t k,
                                        std::uint64_t word, const T* xt,
                                        T* acc) {  // lint:hot-path
  const auto update = [&](int lr, int i) {
    T* arow = acc + static_cast<std::size_t>(lr) * k;
    const T* xrow = xt + static_cast<std::size_t>(cols[i]) * k;
    const T a = vals[i];
    for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      arow[v] += a * xrow[v];
    }
  };
  if (runs != nullptr) {
    int pos = 0;
    for (int ri = 0; ri < nruns; ++ri) {
      const std::size_t rb = static_cast<std::size_t>(ri) * 3;
      const int lr = runs[rb];
      const int c = runs[rb + 1] + 1;
      for (int i = pos; i < pos + c; ++i) update(lr, i);
      pos += c;
    }
    return;
  }
  for (index_t lr = 0; lr < nt; ++lr) {
    for (int i = rp[lr]; i < rp[lr + 1]; ++i) {
      update(static_cast<int>(lr), i);
    }
  }
}

}  // namespace detail

/// Y[v] = A * X.lane(v) for every lane of the block. Per lane, the result
/// is numerically equivalent to tile_spmspv (same products, possibly
/// different summation order), and bitwise the same on any pool or run.
/// Throws std::invalid_argument on an x that does not fit A
/// (require_operand), std::length_error if rows × k overflows index_t.
template <typename T>
std::vector<SparseVec<T>> tile_spmspm(const TileMatrix<T>& a,
                                      const TileVectorBlock<T>& x,
                                      SpmspmWorkspace<T>& ws,
                                      ThreadPool* pool = nullptr) {
  const index_t nt = a.nt;
  const index_t k = x.k;
  if (k == 0) return {};
  detail::require_operand(x, a.cols, nt, "tile_spmspm");
  std::vector<SparseVec<T>> ys(static_cast<std::size_t>(k));
  if (static_cast<offset_t>(a.rows) * k > std::numeric_limits<index_t>::max()) {
    throw std::length_error("tile_spmspm: rows * k overflows a side cell");
  }
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  ws.ensure(a.rows, a.tile_rows, k, nt, static_cast<int>(p.size()));
  T* yb = ws.y_block.data();
  std::uint64_t* rmask = ws.row_mask.data();

  // Phase 1: tiled part over the conversion-time work-balanced chunks.
  // One x_ptr/active probe per tile serves the whole block; the dense vs
  // sparse lane path is chosen per tile from the active-lane count.
  {
    obs::TraceSpan span("spmspv/phase1_tiled", "spmspv", "block");
    std::vector<index_t> fallback;
    const std::vector<index_t>* cp = &a.row_chunk_ptr;
    if (cp->size() < 2) {
      fallback = uniform_row_chunks(a.tile_rows, 8);
      cp = &fallback;
    }
    const auto nchunks = static_cast<index_t>(cp->size()) - 1;
    const index_t* chunk_ptr = cp->data();
    const bool have_runs =
        a.run_ptr.size() == static_cast<std::size_t>(a.num_tiles()) + 1;
    parallel_for(
        nchunks,
        [&](index_t c) {
          const int slot = ThreadPool::scratch_slot();
          T* acc = ws.acc.data() + static_cast<std::size_t>(slot) * nt *
                                       static_cast<std::size_t>(k);
          std::uint64_t scanned = 0, computed = 0, macs = 0, lane_macs = 0,
                        shared = 0;
          for (index_t tr = chunk_ptr[c]; tr < chunk_ptr[c + 1]; ++tr) {
            std::uint64_t row_word = 0;
            for (offset_t t = a.tile_row_ptr[tr]; t < a.tile_row_ptr[tr + 1];
                 ++t) {
              ++scanned;
              const index_t tile_colid = a.tile_col_id[t];
              const std::uint64_t word = x.active[tile_colid];
              if (word == 0) continue;  // no lane has this vector tile
              ++computed;
              const offset_t base = a.tile_nnz_ptr[t];
              const auto tile_nnz = static_cast<std::uint64_t>(
                  a.tile_nnz_ptr[t + 1] - base);
              const auto lanes = static_cast<index_t>(popcount(word));
              macs += tile_nnz * static_cast<std::uint64_t>(lanes);
              lane_macs += tile_nnz * static_cast<std::uint64_t>(k);
              shared += static_cast<std::uint64_t>(lanes - 1);
              const T* xt = x.x_tile.data() +
                            static_cast<std::size_t>(x.x_ptr[tile_colid]) *
                                nt * static_cast<std::size_t>(k);
              if (row_word == 0) {
                std::fill(acc,
                          acc + static_cast<std::size_t>(nt) *
                                    static_cast<std::size_t>(k),
                          T{});
              }
              row_word |= word;
              const std::uint8_t* runs =
                  have_runs ? a.row_runs.data() + 3 * a.run_ptr[t] : nullptr;
              const int nruns =
                  have_runs
                      ? static_cast<int>(a.run_ptr[t + 1] - a.run_ptr[t])
                      : 0;
              const std::uint16_t* rp = &a.intra_row_ptr[t * (nt + 1)];
              // Panel path skips dead lanes at group granularity (16-wide
              // panels for dense groups, 4-lane nibbles for partial ones),
              // so it stays efficient from full occupancy down to moderate;
              // only near-empty words (less than one lane per 16) fall back
              // to the per-set-bit path, which touches strictly the active
              // lanes.
              if (lanes * 16 >= k) {
                detail::block_tile_accumulate(&a.vals[base],
                                              &a.local_col[base], rp, runs,
                                              nruns, nt, k, word, xt, acc);
              } else {
                detail::block_tile_accumulate_lanes(&a.vals[base],
                                                    &a.local_col[base], rp,
                                                    runs, nruns, nt, k, word,
                                                    xt, acc);
              }
            }
            if (row_word != 0) {
              const index_t r_begin = tr * nt;
              const index_t r_end = std::min<index_t>(r_begin + nt, a.rows);
              std::copy(acc,
                        acc + static_cast<std::size_t>(r_end - r_begin) *
                                  static_cast<std::size_t>(k),
                        yb + static_cast<std::size_t>(r_begin) *
                                 static_cast<std::size_t>(k));
              rmask[tr] = row_word;  // tile row owned by this chunk
            }
          }
          obs::counter_add(obs::Counter::kTilesScanned, scanned);
          obs::counter_add(obs::Counter::kTilesSkippedEmpty,
                           scanned - computed);
          obs::counter_add(obs::Counter::kTilesComputed, computed);
          obs::counter_add(obs::Counter::kPayloadMacs, macs);
          obs::counter_add(obs::Counter::kBatchLaneMacs, lane_macs);
          obs::counter_add(obs::Counter::kBatchTilesShared, shared);
        },
        &p, /*chunk=*/1);
  }

  // Phase 2: the extracted side part, the CSR form's side pass at k lanes
  // over the block's tile list (slot order is tile order, so entry i is
  // slot i). Cell r·k + v is lane v of row r.
  if (a.extracted.nnz() > 0) {
    obs::TraceSpan span("spmspv/phase2_side", "spmspv", "block");
    ws.active.resize(static_cast<std::size_t>(x.num_tiles()));
    ws.active.resize(static_cast<std::size_t>(bitk::collect_nonzero(
        x.active.data(), x.num_tiles(), 0, ws.active.data())));
    detail::side_pass(
        a, ws.active, x.x_tile.data(), k,
        [&](index_t s) { return x.active[s]; }, ws.range_ptr, ws.gather, &p,
        [&](index_t cell, T prod) {
          yb[cell] += prod;
          rmask[cell / k / nt] |= std::uint64_t{1} << (cell % k);
        });
  }

  // Phase 3: per-lane gather, parallel over the k lanes. Each lane sizes
  // its output from its flagged-tile-row count (one bit test per tile
  // row), emits in index order, and clears exactly the y_block cells it
  // read — lanes touch disjoint cells, so no synchronization is needed.
  obs::TraceSpan span("spmspv/phase3_gather", "spmspv", "block");
  obs::counter_add(obs::Counter::kGatherSlots,
                   static_cast<std::uint64_t>(k) *
                       static_cast<std::uint64_t>(a.tile_rows));
  parallel_for(
      k,
      [&](index_t v) {
        const std::uint64_t bit = std::uint64_t{1} << v;
        index_t flagged = 0;
        for (index_t tr = 0; tr < a.tile_rows; ++tr) {
          flagged += (rmask[tr] & bit) != 0 ? 1 : 0;
        }
        SparseVec<T> y(a.rows);
        y.reserve(static_cast<std::size_t>(flagged) *
                  static_cast<std::size_t>(nt));
        for (index_t tr = 0; tr < a.tile_rows; ++tr) {
          if ((rmask[tr] & bit) == 0) continue;
          const index_t r_begin = tr * nt;
          const index_t r_end = std::min<index_t>(r_begin + nt, a.rows);
          for (index_t r = r_begin; r < r_end; ++r) {
            T& cell = yb[static_cast<std::size_t>(r) * k + v];
            if (cell != T{}) y.push(r, cell);
            cell = T{};
          }
        }
        ys[static_cast<std::size_t>(v)] = std::move(y);
      },
      &p, /*chunk=*/1);
  std::fill(rmask, rmask + a.tile_rows, 0);
  return ys;
}

/// Convenience overload owning a transient workspace.
template <typename T>
std::vector<SparseVec<T>> tile_spmspm(const TileMatrix<T>& a,
                                      const TileVectorBlock<T>& x,
                                      ThreadPool* pool = nullptr) {
  SpmspmWorkspace<T> ws;
  return tile_spmspm(a, x, ws, pool);
}

}  // namespace tilespmspv
