// TileSpMSpV — the paper's numeric kernel (Algorithm 4) in its two forms
// (§3.2.3), each implemented once:
//   - the matrix-driven CSR form at k lanes, detail::csr_spmspm. The paper
//     treats SpMSpV as the k = 1 corner of a multi-vector product (§1):
//     tile_spmspv is that walk at one lane, tile_spmspv_masked the same with
//     a GraphBLAS output mask applied by the gather, and the block engine
//     tile_spmspm (core/tile_spmspm.hpp) the same walk at k <= 64 lanes;
//   - the vector-driven CSC form, tile_spmspv_csc, generic over a
//     Semiring policy (core/semiring.hpp), so SemiringOperator's min-plus,
//     or-and and max-times multiplies run on it too.
//
// CSR form: one work unit per *work-balanced chunk* of tile rows
// (boundaries computed once at conversion, see tile/tile_chunks.hpp):
// every non-empty matrix tile in a tile row reads x's lane word for its
// tile column in O(1); a tile no lane holds is skipped without touching the
// tile payload. Surviving tiles accumulate into an nt×k block held per pool
// slot, walking the tile's non-empty-row run list (a TileMatrix invariant).
// Only the per-tile kernel depends on k: at k = 1 the run kernel
// (intra_tile_accumulate_runs, the gather+multiply vectorized through
// util/simd.hpp), at k >= 2 the lane panels or, for nearly empty lane
// words, the per-set-bit loop. The very sparse part extracted into COO at
// preprocessing time is processed by a separate pass merged into the same
// output (paper §3.2.1 / §3.4 hybrid).
//
// Execution-layer notes:
//   - every floating-point sum has one order, whatever the pool size,
//     shard count or run. Work whose results can meet in one output is cut
//     into at most kMaxRanges ranges of the active x-tile list (one on a
//     1-slot pool), with boundaries derived from the matrix and x
//     (detail::cut_ranges),
//     and products meet in range order through one owner-computes apply
//     (OwnerLists): each range appends (output key, product) pairs to one
//     list per owner of a block of output rows, and each owner applies its
//     lists in range order. The CSC form scatters all its products this
//     way; the CSR form only its side pass (detail::side_pass), since a
//     phase-1 chunk owns its tile rows outright. No value atomics anywhere;
//   - phase 3 (gather) runs as (lane, tile range) tasks in the CSR form:
//     each assembles its part privately, sized from its flagged-tile
//     count, and a lane's parts are spliced with a prefix sum, preserving
//     the exact serial output. In the CSC form each owner emits its own
//     rows from a row bitmap, and the owners' parts are spliced the same
//     way;
//   - all scratch (output block, row masks and bitmap, accumulators,
//     active-tile lists, pair lists, gather buffers) lives in
//     SpmspvWorkspace, so steady-state multiplies allocate nothing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/semiring.hpp"
#include "formats/sparse_vector.hpp"
#include "obs/counters.hpp"
#include "obs/shard_stats.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_chunks.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector.hpp"
#include "util/pair_list.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace tilespmspv {

namespace detail {

/// Stack scratch for the flat gather+multiply micro-kernel: covers every
/// tile up to 4096 entries (all of nt <= 64, and any realistically sparse
/// tile at larger nt); denser tiles fall back to per-row SIMD dots, where
/// rows are long enough for lane partials to amortize.
inline constexpr int kProdScratch = 4096;

/// One-lane tile kernel: `runs` lists the tile's non-empty local rows as
/// (row, count - 1, contiguous) byte triples covering the tile's entries
/// in order (see TileMatrix::build_row_runs). Sparse tiles touch only
/// their populated rows — no nt-iteration row-pointer scan — and the tile's
/// precomputed `strategy` selects the micro-kernel its run shape favors:
/// per-run dots (gather-free FMA on contiguous-column rows, hardware
/// gather on long scattered rows), the flat gather + segment sums, or a
/// plain scalar loop for tiles of a handful of entries.
template <typename T>
inline void intra_tile_accumulate_runs(const T* vals, const std::uint8_t* cols,
                                       const std::uint8_t* runs, int nruns,
                                       int nnz, std::uint8_t strategy,
                                       const T* xt, T* acc,
                                       T* prod) {  // lint:hot-path
  if constexpr (std::is_same_v<T, double>) {
    if (strategy == TileMatrix<T>::kRunFlat && nnz <= kProdScratch) {
      simd::gather_mul(vals, cols, nnz, xt, prod);
      int pos = 0;
      for (int ri = 0; ri < nruns; ++ri) {
        const std::size_t rb = static_cast<std::size_t>(ri) * 3;
        const int lr = runs[rb];
        const int c = runs[rb + 1] + 1;
        acc[lr] += simd::range_sum(prod + pos, c);
        pos += c;
      }
      return;
    }
    if (strategy != TileMatrix<T>::kRunTiny) {
      int pos = 0;
      for (int ri = 0; ri < nruns; ++ri) {
        const std::size_t rb = static_cast<std::size_t>(ri) * 3;
        const int lr = runs[rb];
        const int c = runs[rb + 1] + 1;
        if (c == 1) {
          acc[lr] += vals[pos] * xt[cols[pos]];
        } else if (runs[rb + 2]) {
          acc[lr] += simd::dot_contig(vals + pos, xt + cols[pos], c);
        } else if (c >= 8) {
          acc[lr] += simd::dot_gather(vals + pos, cols + pos, c, xt);
        } else {
          T sum{};
          for (int i = pos; i < pos + c; ++i) sum += vals[i] * xt[cols[i]];
          acc[lr] += sum;
        }
        pos += c;
      }
      return;
    }
  }
  (void)prod;
  (void)nnz;
  int pos = 0;
  for (int ri = 0; ri < nruns; ++ri) {
    const std::size_t rb = static_cast<std::size_t>(ri) * 3;
    const int lr = runs[rb];
    const int c = runs[rb + 1] + 1;
    T sum{};
    for (int i = pos; i < pos + c; ++i) sum += vals[i] * xt[cols[i]];
    acc[lr] += sum;
    pos += c;
  }
}

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

/// Lane-panel tile kernel (k >= 2): the tile's runs outer, active 4-lane
/// groups inner. Each group's accumulator panel stays in a register across
/// the row's entries (one load/store per row × group instead of per
/// nonzero), and groups with no active lane are skipped entirely — tiles
/// where only part of the block is live neither read nor write the dead
/// lanes' payload at nibble granularity.
template <typename T>
inline void block_tile_accumulate(const T* vals, const std::uint8_t* cols,
                                  const std::uint8_t* runs, int nruns,
                                  index_t k, std::uint64_t word, const T* xt,
                                  T* acc) {  // lint:hot-path
  int pos = 0;
  for (int ri = 0; ri < nruns; ++ri) {
    const std::size_t rb = static_cast<std::size_t>(ri) * 3;
    const int n = runs[rb + 1] + 1;
    const T* rv = vals + pos;
    const std::uint8_t* rc = cols + pos;
    T* arow = acc + static_cast<std::size_t>(runs[rb]) * k;
    pos += n;
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
        if (std::popcount(m16) >= 12) {
          simd::lane_panel16_update(rv, rc, n, static_cast<int>(k), xt + g,
                                    arow + g);
          continue;
        }
        for (index_t s = g; s < g + 16; s += 4) {
          if (((word >> s) & 0xFu) == 0) continue;
          panel_row(rv, rc, n, k, 4, xt + s, arow + s);
        }
      }
    }
    for (; g < k; g += 4) {
      const int w = static_cast<int>(k - g < 4 ? k - g : 4);
      if (((word >> g) & ((std::uint64_t{1} << w) - 1)) == 0) continue;
      panel_row(rv, rc, n, k, w, xt + g, arow + g);
    }
  }
}

/// Sparse-lane tile kernel (k >= 2): iterate the tile's entries once and
/// update only the lanes set in `word`. Same per-lane entry order as the
/// panel kernel (entries outer), so the two sum identically per lane.
template <typename T>
inline void block_tile_accumulate_lanes(const T* vals, const std::uint8_t* cols,
                                        const std::uint8_t* runs, int nruns,
                                        index_t k, std::uint64_t word,
                                        const T* xt,
                                        T* acc) {  // lint:hot-path
  int pos = 0;
  for (int ri = 0; ri < nruns; ++ri) {
    const std::size_t rb = static_cast<std::size_t>(ri) * 3;
    T* arow = acc + static_cast<std::size_t>(runs[rb]) * k;
    const int end = pos + runs[rb + 1] + 1;
    for (; pos < end; ++pos) {
      const T* xrow = xt + static_cast<std::size_t>(cols[pos]) * k;
      const T a = vals[pos];
      for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
        const int v = std::countr_zero(bits);
        arow[v] += a * xrow[v];
      }
    }
  }
}

}  // namespace detail

/// Per-range buffers: the parallel gather (phase 3) assembles each (lane,
/// range) part of the output, or in the CSC form each owner's part, into
/// its own list (on its own cache line), spliced afterwards. Lists keep
/// their capacity across multiplies and are empty between phases.
template <typename T>
struct GatherScratch {
  std::vector<detail::PairList<T>> parts;
  std::vector<std::size_t> offs;

  void ensure(index_t buffers) {
    if (static_cast<index_t>(parts.size()) < buffers) parts.resize(buffers);
    offs.assign(static_cast<std::size_t>(buffers), 0);
  }
};

/// The owner-computes apply, the one scatter-and-merge primitive of both
/// SpMSpV forms. Output keys are split among owners of `span` consecutive
/// keys each. scatter() runs the input ranges as pool tasks, and range rg
/// appends each (key, product) pair it makes to list rg·owners + key/span.
/// apply() then runs one task per owner, which takes its lists in range
/// order and then runs its finish step. Every key gets its products in
/// range order, and within a range in the order the range made them, so
/// results depend on the cut into ranges alone, never on the owner count.
/// Each list owns its cache line, so ranges (and owners) running at once
/// never write one line. Lists keep their capacity across multiplies and
/// are empty between them.
template <typename T>
struct OwnerLists {
  std::vector<detail::PairList<T>> lists;  // list rg·owners + o
  index_t ranges = 0;
  index_t owners = 0;

  /// fn(rg, emit) runs input range rg and calls emit(key, product) once
  /// per product it makes.
  template <typename ScatterFn>
  void scatter(index_t nranges, index_t nowners, index_t span, ThreadPool& p,
               ScatterFn&& fn) {
    ranges = nranges;
    owners = nowners;
    const auto count = static_cast<std::size_t>(ranges) *
                       static_cast<std::size_t>(owners);
    if (lists.size() < count) lists.resize(count);
    const IndexDiv owner_of(span);
    parallel_for(
        ranges,
        [&](index_t rg) {
          detail::PairList<T>* l =
              lists.data() + static_cast<std::size_t>(rg) * owners;
          fn(rg, [&](index_t key, T prod) { l[owner_of(key)].push(key, prod); });
        },
        &p, /*chunk=*/1);
  }

  /// fn(key, product) over owner o's pairs in range order, then
  /// finish(o, n), n the pairs it took (at least the keys it touched), one
  /// task per owner.
  template <typename ApplyFn, typename FinishFn>
  void apply(ThreadPool& p, ApplyFn&& fn, FinishFn&& finish) {
    parallel_for(
        owners,
        [&](index_t o) {
          std::size_t n = 0;
          for (index_t rg = 0; rg < ranges; ++rg) {
            detail::PairList<T>& l =
                lists[static_cast<std::size_t>(rg) * owners + o];
            for (std::size_t e = 0; e < l.size(); ++e) fn(l.idx[e], l.vals[e]);
            n += l.size();
            l.clear();
          }
          finish(o, n);
        },
        &p, /*chunk=*/1);
  }
};

/// Reusable buffers so per-multiply cost stays proportional to the touched
/// rows, not to the matrix size (important at vector sparsity 1e-4, where a
/// full O(rows) clear would dominate and hide the algorithm's advantage).
/// One workspace serves the CSR form at any lane count k and the CSC form
/// over any semiring. Invariants between calls: y, row_mask and row_bits
/// are all-zero, the pair and gather lists are empty; acc, `active` and
/// `range_ptr` hold garbage.
template <typename T = value_t>
struct SpmspvWorkspace {
  // The rows×k dense output (lane v of row r at y[r·k + v]; the CSC form
  // uses k = 1). The CSR form marks each tile row's union lane mask in
  // row_mask (bit v = lane v has a value there to gather) and accumulates
  // into one nt×k block per pool slot; the CSC form marks each output row's
  // first touch in row_bits (bit r % 64 of word r / 64).
  std::vector<T> y;                     // all-zero between calls
  std::vector<std::uint64_t> row_mask;  // all-zero between calls
  std::vector<std::uint64_t> row_bits;  // all-zero between calls
  std::vector<T> acc;

  // Hoisted scratch for an active-tile list (the CSC form's, and the block
  // engine's side-pass tile list), and the boundaries of the ranges a
  // multiply cuts its active tiles into (detail::cut_ranges).
  std::vector<index_t> active;
  std::vector<index_t> range_ptr;

  OwnerLists<T> pairs;
  GatherScratch<T> gather;

  // Cached shard partition of the phase-1 chunk list (NUMA-sharded pools
  // only): chunk boundaries plus the payload bytes each shard covers.
  // Rebuilt when the chunk list identity or the shard count changes, so
  // steady-state multiplies pay nothing for it.
  std::vector<index_t> shard_bounds;
  std::vector<std::uint64_t> shard_bytes;
  const index_t* shard_key = nullptr;
  int shard_ns = 0;

  /// Elements between two pool slots' accumulator blocks: the nt×k block
  /// plus a 4 KiB page, so no two slots' blocks share a page. The hardware
  /// prefetchers run ahead within a page; with the blocks a cache line
  /// apart they pulled a neighbour's lines while its owner wrote them, and
  /// the CSR form's phase 1 on web-large at sparsity 1e-2 ran ~25% slower.
  static std::size_t acc_stride(index_t nt, index_t k) {
    return static_cast<std::size_t>(nt) * static_cast<std::size_t>(k) +
           std::max<std::size_t>(1, 4096 / sizeof(T));
  }

  void ensure(index_t rows, index_t tile_rows, index_t k, index_t nt,
              int pool_slots) {
    const std::size_t need_y =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(k);
    if (y.size() < need_y) y.resize(need_y, T{});
    if (row_mask.size() < static_cast<std::size_t>(tile_rows)) {
      row_mask.resize(static_cast<std::size_t>(tile_rows), 0);
    }
    const auto words =
        ceil_div<std::size_t>(static_cast<std::size_t>(rows), 64);
    if (row_bits.size() < words) row_bits.resize(words, 0);
    const std::size_t need_acc =
        static_cast<std::size_t>(pool_slots) * acc_stride(nt, k);
    if (acc.size() < need_acc) acc.resize(need_acc);
  }
};

namespace detail {

/// Most ranges a multiply cuts its active x-tile list into. Boundaries
/// depend on the matrix and x, and on the pool only through whether it has
/// one slot (max_ranges), never on its size beyond that or its shards; and
/// since every output takes its products in x-tile order whatever the
/// cut, the cut changes no floating-point sum.
inline constexpr index_t kMaxRanges = 16;

/// Most ranges a multiply on `p` cuts: kMaxRanges, or 1 on a 1-slot pool,
/// which runs every range on the caller, so each further range would
/// only add lists.
inline index_t max_ranges(const ThreadPool& p) {
  return p.size() > 1 ? kMaxRanges : 1;
}

/// Least total weight at which a CSC multiply is cut into ranges (an x
/// tile weighs 1 plus the Aᵀ tiles it selects, about one product each).
/// Set from a sweep on web-large (EXPERIMENTS.md, "CSC range cut"): on a
/// 4-thread pool, a cut into kMaxRanges ranges ran about as fast as one
/// range on the caller at a weight of ~120 (sparsity 5e-5), faster from
/// ~180 and a third faster from ~390, and slower at ~70. A multiply
/// lighter than this, or on a 1-slot pool, is one range and wakes no
/// worker.
inline constexpr offset_t kMinSplitWeight = 128;

/// Cuts `active` into contiguous ranges of about equal weight: one range
/// when the total weight is below `min_total`, else at most `max_ranges`,
/// by build_weighted_chunks_into with target ceil(total / max_ranges).
/// Every weight must be >= 1, which is what bounds the count (a full
/// `max_ranges` chunks would already hold the whole total). Range k covers
/// active[bounds[k] .. bounds[k+1]); returns the range count.
template <typename WeightFn>
index_t cut_ranges(std::vector<index_t>& bounds,
                   const std::vector<index_t>& active, index_t max_ranges,
                   offset_t min_total, WeightFn&& weight) {
  offset_t total = 0;
  for (const index_t s : active) total += weight(s);
  const offset_t target =
      total < min_total ? total : ceil_div<offset_t>(total, max_ranges);
  build_weighted_chunks_into(
      bounds, static_cast<index_t>(active.size()), target,
      [&](index_t i) { return weight(active[static_cast<std::size_t>(i)]); });
  return static_cast<index_t>(bounds.size()) - 1;
}

/// Keys per owner as an index_t. A span past the largest key means one
/// owner holds every key, so capping it changes no owner.
inline index_t key_span(offset_t keys) {
  return static_cast<index_t>(std::min<offset_t>(
      keys, std::numeric_limits<index_t>::max()));
}

/// Blocks of output per owner for an apply fed by `ranges` input ranges
/// over `units` blocks: one owner per pool slot, but no more owners than
/// the ranges (so a multiply too small to split its input runs its apply
/// on the caller too) or the units. At least 1, so an empty output
/// (units = 0) has ceil_div(0, 1) = 0 owners.
inline index_t owner_span(index_t ranges, const ThreadPool& p, index_t units) {
  const index_t owners = std::max<index_t>(
      1, std::min({ranges, static_cast<index_t>(p.size()), units}));
  return std::max<index_t>(1, ceil_div(units, owners));
}

/// Number of gather ranges for `tiles` output tile slots on `p`. 1 means
/// "assemble serially": fewer than 4096 tiles, a single-slot pool,
/// or a host without real hardware parallelism (an oversubscribed pool
/// would pay the splice's extra output copy with no concurrent assembly to
/// show for it). Ranges only split which task emits which tiles, so the
/// output does not depend on this count.
inline index_t gather_ranges(index_t tiles, ThreadPool& p) {
  static const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1 || p.size() <= 1 || tiles < 4096) return 1;
  return std::min<index_t>(tiles,
                           static_cast<index_t>(4 * p.size()));
}

/// Splices per-range gather buffers into `lanes` SparseVecs via prefix
/// sums: lane v's parts are buffers v·ranges .. v·ranges + ranges - 1, in
/// order. Buffers are cleared (capacity kept) on the way out.
template <typename T>
void splice_ranges(index_t lanes, index_t ranges, GatherScratch<T>& gs,
                   ThreadPool* pool, SparseVec<T>* ys) {
  for (index_t v = 0; v < lanes; ++v) {
    std::size_t total = 0;
    for (index_t b = v * ranges; b < (v + 1) * ranges; ++b) {
      gs.offs[b] = total;
      total += gs.parts[b].size();
    }
    ys[v].idx.resize(total);
    ys[v].vals.resize(total);
  }
  parallel_for(
      lanes * ranges,
      [&](index_t b) {
        SparseVec<T>& y = ys[b / ranges];
        detail::PairList<T>& part = gs.parts[b];
        std::copy(part.idx.begin(), part.idx.end(), y.idx.begin() + gs.offs[b]);
        std::copy(part.vals.begin(), part.vals.end(),
                  y.vals.begin() + gs.offs[b]);
        part.clear();
      },
      pool, /*chunk=*/1);
}

/// Phase-3 gather of the CSR form at k lanes: emits lane v's nonzeros of
/// the tile rows whose row_mask word has bit v, in index order, into
/// ys[v], and restores the workspace's all-zero y and row_mask. `mask`
/// (optional) suppresses emission at positions where mask[r] ==
/// complement; y is cleared either way. Tasks are (lane, tile range)
/// pairs: the gather_ranges(tiles) ranges are shared out among the lanes,
/// so a lone vector on a large matrix still assembles in parallel, while a
/// wide block (one task per lane already) pays no splice; any split gives
/// bit-identical output.
template <typename T>
void gather_lanes(index_t n, index_t tiles, index_t nt, index_t k, T* y,
                  std::uint64_t* rmask, GatherScratch<T>& gs, ThreadPool& p,
                  const std::vector<bool>* mask, bool complement,
                  SparseVec<T>* ys) {
  const index_t ranges = std::max<index_t>(1, gather_ranges(tiles, p) / k);
  const index_t per = ceil_div(tiles, ranges);
  const auto assemble = [&](index_t v, index_t rg,
                            std::vector<index_t>& out_idx,
                            std::vector<T>& out_vals) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    const index_t t_begin = std::min<index_t>(rg * per, tiles);
    const index_t t_end = std::min<index_t>(t_begin + per, tiles);
    // Size from the flagged-tile count: at most nt entries per flagged
    // tile, so one scan replaces geometric reallocation during the pushes.
    index_t flagged = 0;
    for (index_t tr = t_begin; tr < t_end; ++tr) {
      flagged += (rmask[tr] & bit) != 0 ? 1 : 0;
    }
    out_idx.reserve(out_idx.size() + static_cast<std::size_t>(flagged) * nt);
    out_vals.reserve(out_vals.size() + static_cast<std::size_t>(flagged) * nt);
    for (index_t tr = t_begin; tr < t_end; ++tr) {
      if ((rmask[tr] & bit) == 0) continue;
      if (k == 1) rmask[tr] = 0;  // the lone lane's task owns the word
      const index_t r_begin = tr * nt;
      const index_t r_end = std::min<index_t>(r_begin + nt, n);
      for (index_t r = r_begin; r < r_end; ++r) {
        T& cell = y[static_cast<std::size_t>(r) * k + v];
        if (cell != T{} && (mask == nullptr || (*mask)[r] != complement)) {
          out_idx.push_back(r);
          out_vals.push_back(cell);
        }
        cell = T{};
      }
    }
  };
  const index_t tasks = k * ranges;
  const auto task = [&](index_t b) {
    const index_t v = b / ranges;
    if (ranges == 1) {
      assemble(v, 0, ys[v].idx, ys[v].vals);
    } else {
      assemble(v, b - v * ranges, gs.parts[b].idx, gs.parts[b].vals);
    }
  };
  if (ranges > 1) gs.ensure(tasks);
  if (tasks == 1) {
    task(0);
  } else {
    parallel_for(tasks, task, &p, /*chunk=*/1);
  }
  if (ranges > 1) splice_ranges(k, ranges, gs, &p, ys);
  if (k > 1) std::fill(rmask, rmask + tiles, 0);
}

/// Shard partition of the phase-1 chunk list for a NUMA-sharded pool,
/// weighted by the payload bytes each chunk's tile rows cover (tile
/// metadata + intra-tile entries) so the per-node byte footprint — not the
/// chunk count — is what balances. Cached in the workspace keyed on the
/// chunk-list identity and the shard count; also publishes the per-shard
/// byte totals to the shard observability counters.
template <typename T>
const std::vector<index_t>& phase1_shard_bounds(SpmspvWorkspace<T>& ws,
                                                const TileMatrix<T>& a,
                                                const index_t* chunk_ptr,
                                                index_t nchunks, int ns) {
  if (ws.shard_key != chunk_ptr || ws.shard_ns != ns ||
      ws.shard_bounds.empty() || ws.shard_bounds.back() != nchunks) {
    ShardPlan plan = make_shard_plan(nchunks, ns, [&](index_t c) {
      const index_t tr0 = chunk_ptr[c];
      const index_t tr1 = chunk_ptr[c + 1];
      const offset_t t0 = a.tile_row_ptr[tr0];
      const offset_t t1 = a.tile_row_ptr[tr1];
      const offset_t nnz = a.tile_nnz_ptr[t1] - a.tile_nnz_ptr[t0];
      return static_cast<std::uint64_t>(t1 - t0) *
                 (sizeof(index_t) + sizeof(offset_t) +
                  static_cast<std::size_t>(a.nt + 1) * sizeof(std::uint16_t)) +
             static_cast<std::uint64_t>(nnz) * (sizeof(T) + 1);
    });
    ws.shard_bounds = std::move(plan.chunk_bounds);
    ws.shard_bytes = std::move(plan.bytes);
    ws.shard_key = chunk_ptr;
    ws.shard_ns = ns;
  }
  for (int s = 0; s < ns; ++s) {
    obs::shard_set_bytes(s, ws.shard_bytes[static_cast<std::size_t>(s)]);
  }
  return ws.shard_bounds;
}

/// Phase 2 at k lanes: the extracted part times x's non-empty tiles
/// (`tiles`, slot order: slot ai's nt×k payload is at x_tile + ai·nt·k;
/// `lanes(s)` is tile s's lane mask). Each range makes its (cell, a·x)
/// pairs, cell = row·k + lane, and the owners of blocks of tile rows take
/// them in range order through `apply(cell, product)` (OwnerLists).
template <typename T, typename LaneFn, typename ApplyFn>
void side_pass(const TileMatrix<T>& a, const std::vector<index_t>& tiles,
               const T* x_tile, index_t k, LaneFn&& lanes,
               std::vector<index_t>& range_ptr, OwnerLists<T>& pairs,
               ThreadPool& p, ApplyFn&& apply) {
  const index_t nt = a.nt;
  // Unit weights: weighting by the side nnz of each tile's columns would
  // read side_col_ptr once per active tile on the caller, a cache miss
  // each, and balanced the pass no better than an even cut.
  const index_t ranges = cut_ranges(range_ptr, tiles, max_ranges(p), 1,
                                    [](index_t) { return index_t{1}; });
  // Owners hold whole tile rows, so each row_mask word has one writer.
  const index_t per_owner = owner_span(ranges, p, a.tile_rows);
  pairs.scatter(
      ranges, ceil_div(a.tile_rows, per_owner),
      key_span(offset_t{per_owner} * nt * k), p,
      [&](index_t rg, auto&& emit) {
        std::uint64_t side = 0;
        for (index_t ai = range_ptr[rg]; ai < range_ptr[rg + 1]; ++ai) {
          const index_t s = tiles[ai];
          const T* xt = x_tile + static_cast<std::size_t>(ai) * nt *
                                     static_cast<std::size_t>(k);
          for (index_t lj = 0; lj < nt; ++lj) {
            const index_t j = s * nt + lj;
            if (j >= a.cols) break;
            const offset_t e_begin = a.side_col_ptr[j];
            const offset_t e_end = a.side_col_ptr[j + 1];
            if (e_begin == e_end) continue;
            for (std::uint64_t bits = lanes(s); bits != 0; bits &= bits - 1) {
              const int v = std::countr_zero(bits);
              const T xv = xt[static_cast<std::size_t>(lj) * k + v];
              if (xv == T{}) continue;
              side += static_cast<std::uint64_t>(e_end - e_begin);
              for (offset_t i = e_begin; i < e_end; ++i) {
                emit(a.side_row_idx[i] * k + v, a.side_vals[i] * xv);
              }
            }
          }
        }
        obs::counter_add(obs::Counter::kSideMacs, side);
      });
  pairs.apply(p, apply, [](index_t, std::size_t) {});
}

/// The CSR form at k lanes, Y<mask> = A X: the body of tile_spmspv and
/// tile_spmspv_masked (k = 1) and of tile_spmspm. x is its slot map
/// `x_ptr` (kEmptyTile: no lane holds the tile), its lane-interleaved
/// payload `x_tile` (element lj of lane v in slot s at
/// x_tile[(s·nt + lj)·k + v]), `lanes(t)`, the lane word of a stored tile
/// t, and `tiles`, its stored tiles in slot order (read only when A has an
/// extracted part). Lane v's result goes to ys[v], which must hold k
/// vectors of length A.rows. `form` labels the trace spans; `mask`
/// (optional) goes to the gather.
template <typename T, typename LaneFn>
void csr_spmspm(const TileMatrix<T>& a, const index_t* x_ptr,
                const T* x_tile, index_t k, LaneFn&& lanes,
                const std::vector<index_t>& tiles, SpmspvWorkspace<T>& ws,
                ThreadPool* pool, const char* form,
                const std::vector<bool>* mask, bool complement,
                SparseVec<T>* ys) {
  const index_t nt = a.nt;
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  ws.ensure(a.rows, a.tile_rows, k, nt, static_cast<int>(p.size()));
  T* y = ws.y.data();
  std::uint64_t* rmask = ws.row_mask.data();
  const std::size_t block =
      static_cast<std::size_t>(nt) * static_cast<std::size_t>(k);
  const std::size_t stride = SpmspvWorkspace<T>::acc_stride(nt, k);

  // Phase 1: tiled part, one task per work-balanced chunk of tile rows
  // (paper Alg. 4 with conversion-time weighted scheduling). A chunk owns
  // its tile rows outright, so each row's sum has one order. One slot-map
  // probe per tile serves every lane; only a stored tile reads its lane
  // word. Counters accumulate into locals and flush once per chunk; with
  // counters compiled out the adds are dead and the locals fold away.
  {
    obs::TraceSpan span("spmspv/phase1_tiled", "spmspv", form);
    std::vector<index_t> fallback;
    const std::vector<index_t>* cp = &a.row_chunk_ptr;
    if (cp->size() < 2) {
      fallback = uniform_row_chunks(a.tile_rows, 8);
      cp = &fallback;
    }
    const auto nchunks = static_cast<index_t>(cp->size()) - 1;
    const index_t* chunk_ptr = cp->data();
    const auto chunk_body = [&](index_t c) {
      T* acc = ws.acc.data() +
               static_cast<std::size_t>(ThreadPool::scratch_slot()) * stride;
      T prod[kProdScratch];
      std::uint64_t scanned = 0, computed = 0, macs = 0, lane_macs = 0,
                    shared = 0;
      for (index_t tr = chunk_ptr[c]; tr < chunk_ptr[c + 1]; ++tr) {
        std::uint64_t row_word = 0;
        for (offset_t t = a.tile_row_ptr[tr]; t < a.tile_row_ptr[tr + 1];
             ++t) {
          ++scanned;
          const index_t tile_colid = a.tile_col_id[t];
          const index_t slot = x_ptr[tile_colid];  // O(1) position
          if (slot == kEmptyTile) continue;  // no lane has this vector tile
          const std::uint64_t word = lanes(tile_colid);
          ++computed;
          const offset_t base = a.tile_nnz_ptr[t];
          const auto tile_nnz = static_cast<int>(a.tile_nnz_ptr[t + 1] - base);
          const auto live = static_cast<index_t>(std::popcount(word));
          macs += static_cast<std::uint64_t>(tile_nnz) *
                  static_cast<std::uint64_t>(live);
          lane_macs += static_cast<std::uint64_t>(tile_nnz) *
                       static_cast<std::uint64_t>(k);
          shared += static_cast<std::uint64_t>(live - 1);
          const T* xt = x_tile + static_cast<std::size_t>(slot) * block;
          if (row_word == 0) std::fill(acc, acc + block, T{});
          row_word |= word;
          const std::uint8_t* runs = a.row_runs.data() + 3 * a.run_ptr[t];
          const auto nruns = static_cast<int>(a.run_ptr[t + 1] - a.run_ptr[t]);
          // The panel kernel skips dead lanes at group granularity (16-wide
          // panels for dense groups, 4-lane nibbles for partial ones); only
          // near-empty words (less than one lane per 16) take the per-set-
          // bit kernel, which touches strictly the active lanes.
          if (k == 1) {
            intra_tile_accumulate_runs(&a.vals[base], &a.local_col[base],
                                       runs, nruns, tile_nnz,
                                       a.tile_strategy[t], xt, acc, prod);
          } else if (live * 16 >= k) {
            block_tile_accumulate(&a.vals[base], &a.local_col[base], runs,
                                  nruns, k, word, xt, acc);
          } else {
            block_tile_accumulate_lanes(&a.vals[base], &a.local_col[base],
                                        runs, nruns, k, word, xt, acc);
          }
        }
        if (row_word != 0) {
          const index_t r_begin = tr * nt;
          const index_t r_end = std::min<index_t>(r_begin + nt, a.rows);
          std::copy(acc,
                    acc + static_cast<std::size_t>(r_end - r_begin) *
                              static_cast<std::size_t>(k),
                    y + static_cast<std::size_t>(r_begin) *
                            static_cast<std::size_t>(k));
          rmask[tr] = row_word;  // tile row owned by this chunk
        }
      }
      obs::counter_add(obs::Counter::kTilesScanned, scanned);
      obs::counter_add(obs::Counter::kTilesSkippedEmpty, scanned - computed);
      obs::counter_add(obs::Counter::kTilesComputed, computed);
      obs::counter_add(obs::Counter::kPayloadMacs, macs);
      obs::counter_add(obs::Counter::kBatchLaneMacs, lane_macs);
      obs::counter_add(obs::Counter::kBatchTilesShared, shared);
      obs::shard_add_tiles(ThreadPool::current_shard(), scanned);
    };
    if (p.num_shards() > 1 && nchunks > 1) {
      // NUMA-sharded dispatch: each shard's workers drain the chunks whose
      // tile rows live (first-touch) on their node, stealing cross-node
      // only once their shard is dry.
      const std::vector<index_t>& sb =
          phase1_shard_bounds(ws, a, chunk_ptr, nchunks, p.num_shards());
      p.parallel_shard_ranges(sb, 1, [&](index_t begin, index_t end) {
        for (index_t c = begin; c < end; ++c) chunk_body(c);
      });
    } else {
      parallel_for(nchunks, chunk_body, &p, /*chunk=*/1);
    }
  }

  // Phase 2: the extracted side part over x's tile list. Cell r·k + v is
  // lane v of row r; its tile row is cell / (k·nt), found, like the row,
  // by multiply and shift rather than a division per pair.
  if (a.extracted.nnz() > 0) {
    obs::TraceSpan span("spmspv/phase2_side", "spmspv", form);
    const IndexDiv row_of(k);
    const IndexDiv tile_row_of(k * nt);
    side_pass(a, tiles, x_tile, k, lanes, ws.range_ptr, ws.pairs, p,
              [&](index_t cell, T prod) {
                y[cell] += prod;
                rmask[tile_row_of(cell)] |= std::uint64_t{1}
                                            << (cell - row_of(cell) * k);
              });
  }

  // Phase 3: gather touched tile rows into the sparse results and restore
  // the workspace's all-zero invariant.
  obs::TraceSpan span("spmspv/phase3_gather", "spmspv", form);
  obs::counter_add(obs::Counter::kGatherSlots,
                   static_cast<std::uint64_t>(k) *
                       static_cast<std::uint64_t>(a.tile_rows));
  gather_lanes(a.rows, a.tile_rows, nt, k, y, rmask, ws.gather, p, mask,
               complement, ys);
}

/// tile_spmspv and tile_spmspv_masked: the CSR form at one lane, whose
/// word is 1 on every stored tile.
template <typename T>
SparseVec<T> csr_spmspv(const TileMatrix<T>& a, const TileVector<T>& x,
                        SpmspvWorkspace<T>& ws, ThreadPool* pool,
                        const char* form, const std::vector<bool>* mask,
                        bool complement) {
  SparseVec<T> y(a.rows);
  csr_spmspm(
      a, x.x_ptr.data(), x.x_tile.data(), 1,
      [](index_t) { return std::uint64_t{1}; }, x.tiles, ws, pool, form,
      mask, complement, &y);
  return y;
}

}  // namespace detail

/// y = A x with A in tiled form and x in tiled vector form (CSR form).
/// Throws std::invalid_argument unless x has one entry per column of A and
/// A's tile size (detail::require_operand).
template <typename T>
SparseVec<T> tile_spmspv(const TileMatrix<T>& a, const TileVector<T>& x,
                         SpmspvWorkspace<T>& ws, ThreadPool* pool = nullptr) {
  detail::require_operand(x, a.cols, a.nt, "tile_spmspv");
  return detail::csr_spmspv(a, x, ws, pool, "csr", nullptr, false);
}

/// Convenience overload owning a transient workspace.
template <typename T>
SparseVec<T> tile_spmspv(const TileMatrix<T>& a, const TileVector<T>& x,
                         ThreadPool* pool = nullptr) {
  SpmspvWorkspace<T> ws;
  return tile_spmspv(a, x, ws, pool);
}

/// Masked SpMSpV: y<mask> = A x, the GraphBLAS fused form. Only output
/// positions allowed by the mask are emitted — with `complement` set,
/// positions NOT in the mask (the BFS recurrence: next = (A·frontier)
/// masked by the complement of visited). The multiply itself runs
/// unmasked (output positions are unknown until computed); the fusion
/// saves the intermediate vector materialization and the second merge
/// pass of mask(tile_spmspv(...), m). Throws std::invalid_argument unless
/// the mask has one entry per row of A and x fits A (as tile_spmspv).
template <typename T>
SparseVec<T> tile_spmspv_masked(const TileMatrix<T>& a,
                                const TileVector<T>& x,
                                const std::vector<bool>& mask_dense,
                                bool complement, SpmspvWorkspace<T>& ws,
                                ThreadPool* pool = nullptr) {
  if (static_cast<index_t>(mask_dense.size()) != a.rows) {
    throw std::invalid_argument(
        "tile_spmspv_masked: mask length must equal the matrix rows");
  }
  detail::require_operand(x, a.cols, a.nt, "tile_spmspv_masked");
  return detail::csr_spmspv(a, x, ws, pool, "masked", &mask_dense,
                            complement);
}


/// CSC-form TileSpMSpV over semiring S (paper §3.2.3: "we provide two
/// forms of SpMSpV algorithms: CSR-SpMSpV and CSC-SpMSpV", selected by
/// vector density).
///
/// Vector-driven: only the tile *columns* whose vector tile is non-empty
/// are visited, so the cost is proportional to the active part of the
/// matrix — the winning regime for very sparse x, where the CSR form's
/// scan over all tile rows' metadata would dominate.
///
/// `at` is the tiled form of Aᵀ: a tile row of Aᵀ is a tile column of A,
/// a local row is an input (column) index of A and a local column an
/// output (row) index, so the same TileMatrix structure serves both
/// orientations. Several tile columns can scatter into the same output
/// row; instead of the paper's atomic merge, the active x tiles are cut
/// into input-derived ranges whose products meet through the owner apply
/// (OwnerLists), in range order. The result holds every output whose value
/// differs from S::zero(). Throws std::invalid_argument unless x has one
/// entry per row of Aᵀ and Aᵀ's tile size (detail::require_operand).
template <typename T, typename S = PlusTimes<T>>
SparseVec<T> tile_spmspv_csc(const TileMatrix<T>& at, const TileVector<T>& x,
                             SpmspvWorkspace<T>& ws,
                             ThreadPool* pool = nullptr) {
  detail::require_operand(x, at.rows, at.nt, "tile_spmspv_csc");
  const index_t nt = at.nt;
  const index_t out_n = at.cols;  // rows of A
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  // Only y and row_bits: no tile-row walk, no accumulator blocks.
  ws.ensure(out_n, 0, 1, nt, 0);
  T* y = ws.y.data();
  std::uint64_t* bits = ws.row_bits.data();
  const index_t words = ceil_div<index_t>(out_n, 64);
  const bool has_side = at.extracted.nnz() > 0;

  // Active tile columns of A = non-empty tiles of x = tile rows of Aᵀ with
  // a matching vector tile and some tiled or extracted entry. Entry (j, i)
  // of Aᵀ's extracted part is A[i][j], so side_row_ptr (the row-major
  // extracted COO) selects the side entries of input index j.
  const auto side_begin = [&](index_t s) {
    return at.side_row_ptr[std::min<index_t>(s * nt, at.rows)];
  };
  ws.active.clear();
  for (const index_t s : x.tiles) {
    if (at.tile_row_ptr[s] < at.tile_row_ptr[s + 1] ||
        (has_side && side_begin(s) < side_begin(s + 1))) {
      ws.active.push_back(s);
    }
  }
  const index_t ranges = detail::cut_ranges(
      ws.range_ptr, ws.active, detail::max_ranges(p), detail::kMinSplitWeight,
      [&](index_t s) {
        return 1 + (at.tile_row_ptr[s + 1] - at.tile_row_ptr[s]);
      });
  // Owners hold whole bitmap words, so no two share one.
  const index_t per_owner = detail::owner_span(ranges, p, words);
  const index_t owners = ceil_div(words, per_owner);

  // Phase 1: each range makes the products of its x tiles, tiled part then
  // side part per tile, and files them by owner.
  {
    obs::TraceSpan span("spmspv/phase1_tiled", "spmspv", "csc");
    ws.pairs.scatter(
        ranges, owners, detail::key_span(offset_t{per_owner} * 64), p,
        [&](index_t rg, auto&& emit) {
          std::uint64_t scanned = 0, macs = 0, side = 0;
          for (index_t ai = ws.range_ptr[rg]; ai < ws.range_ptr[rg + 1];
               ++ai) {
            const index_t s = ws.active[ai];
            const T* xt =
                &x.x_tile[static_cast<std::size_t>(x.x_ptr[s]) * nt];
            // x's nonzero local indices, listed once per x tile, so an Aᵀ
            // tile costs x's nonzeros in the tile rather than nt probes.
            std::uint8_t nz[256];  // nt <= 256 by TileMatrix invariant
            int nnz_x = 0;
            for (index_t lj = 0; lj < nt; ++lj) {
              if (xt[lj] != S::zero()) {
                nz[nnz_x++] = static_cast<std::uint8_t>(lj);
              }
            }
            // Tiled part.
            for (offset_t t = at.tile_row_ptr[s]; t < at.tile_row_ptr[s + 1];
                 ++t) {
              ++scanned;
              const std::uint16_t* rp = &at.intra_row_ptr[t * (nt + 1)];
              const offset_t base = at.tile_nnz_ptr[t];
              const index_t row0 = at.tile_col_id[t] * nt;
              for (int q = 0; q < nnz_x; ++q) {
                const index_t lj = nz[q];  // local input index
                const int b = rp[lj], e = rp[lj + 1];
                macs += static_cast<std::uint64_t>(e - b);
                const T xv = xt[lj];
                for (offset_t i = base + b; i < base + e; ++i) {
                  emit(row0 + at.local_col[i], S::mul(at.vals[i], xv));
                }
              }
            }
            if (!has_side) continue;
            // Side part.
            for (int q = 0; q < nnz_x; ++q) {
              const index_t j = s * nt + nz[q];
              if (j >= at.rows) break;
              const T xv = xt[nz[q]];
              side += static_cast<std::uint64_t>(at.side_row_ptr[j + 1] -
                                                 at.side_row_ptr[j]);
              for (offset_t e = at.side_row_ptr[j]; e < at.side_row_ptr[j + 1];
                   ++e) {
                emit(at.extracted.col_idx[e],
                     S::mul(at.extracted.vals[e], xv));
              }
            }
          }
          // Vector-driven form: every scanned tile is computed (there is no
          // metadata-only skip), so the two counters move together.
          obs::counter_add(obs::Counter::kTilesScanned, scanned);
          obs::counter_add(obs::Counter::kTilesComputed, scanned);
          obs::counter_add(obs::Counter::kPayloadMacs, macs);
          obs::counter_add(obs::Counter::kSideMacs, side);
        });
  }

  // Phase 3: each owner applies its pairs into y, marking a row's first
  // touch in row_bits, so nothing is zero-filled: the first product is
  // added to S::zero() (y holds T{}, which is not S::zero() for min-plus).
  // Then it walks its bitmap words and emits its rows in index order,
  // restoring y and row_bits to zero. The owners' parts are spliced in
  // owner order.
  obs::TraceSpan span("spmspv/phase3_gather", "spmspv", "csc");
  obs::counter_add(obs::Counter::kGatherSlots,
                   static_cast<std::uint64_t>(words));
  SparseVec<T> out(out_n);
  if (owners > 1) ws.gather.ensure(owners);
  ws.pairs.apply(
      p,
      [&](index_t r, T prod) {
        std::uint64_t& word = bits[r / 64];
        const std::uint64_t bit = std::uint64_t{1} << (r % 64);
        y[r] = S::add((word & bit) != 0 ? y[r] : S::zero(), prod);
        word |= bit;
      },
      [&](index_t o, std::size_t n) {
        std::vector<index_t>& out_idx =
            owners > 1 ? ws.gather.parts[o].idx : out.idx;
        std::vector<T>& out_vals =
            owners > 1 ? ws.gather.parts[o].vals : out.vals;
        out_idx.reserve(n);
        out_vals.reserve(n);
        const index_t w_begin = o * per_owner;
        const index_t w_end = std::min<index_t>(w_begin + per_owner, words);
        for (index_t w = w_begin; w < w_end; ++w) {
          for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
            const index_t r = w * 64 + std::countr_zero(word);
            if (y[r] != S::zero()) {
              out_idx.push_back(r);
              out_vals.push_back(y[r]);
            }
            y[r] = T{};
          }
          bits[w] = 0;
        }
      });
  if (owners > 1) detail::splice_ranges(1, owners, ws.gather, &p, &out);
  return out;
}

template <typename T>
SparseVec<T> tile_spmspv_csc(const TileMatrix<T>& at, const TileVector<T>& x,
                             ThreadPool* pool = nullptr) {
  SpmspvWorkspace<T> ws;
  return tile_spmspv_csc(at, x, ws, pool);
}

}  // namespace tilespmspv
