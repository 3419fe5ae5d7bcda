// Bitmask tiled adjacency structure for TileBFS (paper §3.2.3, Fig. 5).
//
// The n×n adjacency matrix A (A[i][j] = 1 iff edge j -> i, so that y = A x
// expands a frontier x) is cut into NT×NT tiles and every non-empty tile is
// stored twice:
//   - CSR form "A2": per tile, one word per local *row* holding that row's
//     column pattern (used by Push-CSR and the pull kernel);
//   - CSC form "A1": per tile, one word per local *column* holding that
//     column's row pattern (used by Push-CSC).
// For undirected graphs the two forms hold identical information, which is
// the storage-halving observation the paper makes; both are materialized
// here so directed graphs also work.
//
// Tiles with at most `extract_threshold` edges are extracted into a plain
// edge list traversed by a separate edge-parallel pass (the paper hands
// this part to GSwitch; see bfs/tile_bfs.hpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "formats/csr.hpp"
#include "formats/validate.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/tile_chunks.hpp"
#include "util/bitops.hpp"
#include "util/pair_list.hpp"
#include "util/types.hpp"

namespace tilespmspv {

template <int NT>
struct BitTileGraph {
  using Word = bitword_t<NT>;

  // Paper §3.2.3 layout guards: every tile is NT mask words of NT bits
  // each, so the word width must equal the tile size exactly and the
  // per-tile mask block (csr_masks[t*NT .. t*NT+NT)) must be NT words.
  static_assert(NT == 8 || NT == 16 || NT == 32 || NT == 64,
                "tile size must match a machine word width");
  static_assert(sizeof(Word) * 8 == NT,
                "bitmask tile rows must be exactly one NT-bit word");

  index_t n = 0;       // number of vertices (matrix order)
  index_t tile_n = 0;  // ceil(n / NT)
  offset_t edges = 0;  // total nnz including extracted part

  // CSR over the tile grid ("A2"): tile (tr, tc) stores, for each local row
  // lr, the word csr_masks[t*NT + lr] whose bit lc is set iff
  // A[tr*NT+lr][tc*NT+lc] != 0.
  // Heavy arrays are ArrayBuf (parallel/arena.hpp): owned by default,
  // views when the graph is arena-placed or mmapped from a tile file.
  ArrayBuf<offset_t> csr_tile_ptr;  // length tile_n + 1
  ArrayBuf<index_t> csr_tile_col;
  ArrayBuf<Word> csr_masks;

  // Per-tile occupancy summary: bit lr of csr_row_summary[t] is set iff
  // local row lr of tile t holds any nonzero. The kernels AND the frontier
  // or unvisited word against this before touching the NT-word payload, so
  // near-empty tiles (scattered matrices) cost O(popcount) instead of
  // O(NT) per visit.
  ArrayBuf<Word> csr_row_summary;

  // CSC over the tile grid ("A1"): tile (tr, tc) stores, for each local
  // column lc, the word csc_masks[t*NT + lc] whose bit lr is set iff the
  // same entry is nonzero.
  //
  // Symmetric sharing (paper §3.2.3): for an undirected graph, the column
  // masks of tile (tr, tc) equal the row masks of its mirror tile
  // (tc, tr), so materializing csc_masks would duplicate every word. When
  // the pattern is symmetric, csc_masks stays empty and csc_mirror[t]
  // holds the CSR-order index of the mirror tile instead — halving the
  // mask storage exactly as the paper describes. csc_mask(t) hides the
  // difference from the kernels.
  ArrayBuf<offset_t> csc_tile_ptr;  // length tile_n + 1
  ArrayBuf<index_t> csc_tile_row;
  ArrayBuf<Word> csc_masks;       // empty when masks are shared
  ArrayBuf<offset_t> csc_mirror;  // empty unless masks are shared
  bool shared_masks = false;

  // Column-occupancy summary of the CSC form (same role as above).
  ArrayBuf<Word> csc_col_summary;

  /// Column-mask block of CSC-order tile t (NT words).
  const Word* csc_mask(offset_t t) const {
    return shared_masks
               ? &csr_masks[static_cast<std::size_t>(csc_mirror[t]) * NT]
               : &csc_masks[static_cast<std::size_t>(t) * NT];
  }

  /// Bytes spent on tile masks (shows the symmetric-sharing saving).
  std::size_t mask_bytes() const {
    return (csr_masks.size() + csc_masks.size()) * sizeof(Word) +
           csc_mirror.size() * sizeof(offset_t);
  }

  // Extracted very-sparse part, indexed by source vertex so the BFS side
  // pass can expand only the frontier's edges: side_dst[side_ptr[u] ..
  // side_ptr[u+1]) are the out-neighbors of u among extracted edges
  // (A[dst][u] entries).
  ArrayBuf<offset_t> side_ptr;  // length n + 1
  ArrayBuf<index_t> side_dst;

  // Side-edge summary: bit b of side_summary[s] is set iff vertex s*NT+b
  // has an extracted out-edge. The BFS side pass ANDs each frontier word
  // with it, so a level visits only the words that can relax an
  // extracted edge. Derived data, never stored in a tile file: from_csr
  // builds it and map_bit_tile_graph_file rebuilds it from side_ptr.
  ArrayBuf<Word> side_summary;  // length tile_n

  offset_t side_edge_count() const {
    return static_cast<offset_t>(side_dst.size());
  }

  /// Rebuilds side_summary from side_ptr (length n + 1 required). Reads
  /// only side_ptr[u+1] > side_ptr[u], so it is safe on unvalidated
  /// mapped offsets.
  void build_side_summary() {
    const ArrayBuf<offset_t>& ptr = side_ptr;  // read surface: may be a view
    side_summary.assign(static_cast<std::size_t>(tile_n), Word{0});
    for (index_t u = 0; u < n; ++u) {
      if (ptr[u + 1] > ptr[u]) {
        side_summary[u / NT] |= msb_bit<Word>(u % NT);
      }
    }
  }

  // Work-weighted dispatch boundaries over tile rows for the matrix-driven
  // BFS kernels (Push-CSR / Pull-CSC), built once at conversion time like
  // TileMatrix::row_chunk_ptr: chunk c covers tile rows
  // [csr_chunk_ptr[c], csr_chunk_ptr[c+1]). The weight of a tile row is
  // one claim-loop iteration plus, per stored tile, the metadata charge
  // and the popcount of its row summary (set rows are what the kernels
  // actually scan). Empty on hand-built graphs; the kernels fall back to
  // uniform chunks then.
  std::vector<index_t> csr_chunk_ptr;

  // Per-tile-column work weight of the CSC form (same unit), used by the
  // per-level frontier-slot chunking of Push-CSC and kept as a length
  // tile_n array because the frontier is a sparse subset of columns — a
  // prefix sum over all columns would not compose over the slot list.
  ArrayBuf<offset_t> csc_col_weight;

  // View-backed storage owner + placement tag (see TileMatrix::storage).
  Placement placed = Placement::kHeap;
  std::shared_ptr<const void> storage;

  index_t num_tiles() const {
    return static_cast<index_t>(csr_tile_col.size());
  }

  double tile_occupancy() const {
    const double grid = static_cast<double>(tile_n) * tile_n;
    return grid == 0.0 ? 0.0 : num_tiles() / grid;
  }

  /// Builds both tile forms from a square CSR pattern (values ignored).
  /// When `share_symmetric` is set and the pattern is symmetric, the CSC
  /// masks alias the CSR ones (§3.2.3 storage halving). The build runs in
  /// parallel over nnz-weighted tile-row ranges on `pool` (nullptr =
  /// shared pool); range merges happen in range order, so the resulting
  /// structure is bit-identical to the serial build regardless of pool
  /// size or scheduling.
  static BitTileGraph from_csr(const Csr<value_t>& a,
                               index_t extract_threshold = 0,
                               bool share_symmetric = true,
                               ThreadPool* pool = nullptr) {
    assert(a.rows == a.cols);
    BitTileGraph g;
    g.n = a.rows;
    g.tile_n = ceil_div<index_t>(a.rows, NT);
    g.edges = a.nnz();
    g.csr_tile_ptr.assign(g.tile_n + 1, 0);

    // Parallel grain: tile-row ranges of roughly equal nnz. Each range
    // owns a disjoint slice of rows (and hence of the tiles and masks
    // those rows produce), so the two passes below need no atomics.
    const std::vector<index_t> ranges = build_weighted_chunks(
        g.tile_n, std::max<offset_t>(a.nnz() / 32 + 1, offset_t{4096}),
        [&](index_t tr) {
          const index_t r_begin = tr * NT;
          const index_t r_end = std::min<index_t>(r_begin + NT, a.rows);
          return offset_t{1} + a.row_ptr[r_end] - a.row_ptr[r_begin];
        });
    const index_t nranges = static_cast<index_t>(ranges.size()) - 1;

    // One list per range, each on its own cache line (detail::PairList),
    // so ranges filling neighbouring lists never share a line.
    std::vector<detail::PairList<index_t>> range_lists(
        static_cast<std::size_t>(nranges));

    // Pass 1 (parallel): per tile row, count nnz per tile column; decide
    // kept vs extracted (same structure as TileMatrix::from_csr). Kept
    // column ids land in the range lists' idx, whose range-order
    // concatenation equals the row-order list.
    parallel_for(
        nranges,
        [&](index_t rg) {
          std::vector<offset_t> tile_nnz(g.tile_n, 0);
          std::vector<index_t> touched;
          std::vector<index_t>& kept = range_lists[rg].idx;
          for (index_t tr = ranges[rg]; tr < ranges[rg + 1]; ++tr) {
            touched.clear();
            const index_t r_begin = tr * NT;
            const index_t r_end = std::min<index_t>(r_begin + NT, a.rows);
            for (index_t r = r_begin; r < r_end; ++r) {
              for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
                const index_t tc = a.col_idx[i] / NT;
                if (tile_nnz[tc] == 0) touched.push_back(tc);
                ++tile_nnz[tc];
              }
            }
            std::sort(touched.begin(), touched.end());
            for (index_t tc : touched) {
              if (tile_nnz[tc] > extract_threshold) {
                kept.push_back(tc);
                ++g.csr_tile_ptr[tr + 1];
              }
              tile_nnz[tc] = 0;
            }
          }
        },
        pool, /*chunk=*/1);
    for (index_t tr = 0; tr < g.tile_n; ++tr) {
      g.csr_tile_ptr[tr + 1] += g.csr_tile_ptr[tr];
    }
    g.csr_tile_col.clear();
    for (auto& list : range_lists) {
      g.csr_tile_col.append(list.idx.begin(), list.idx.end());
      list.clear();
    }
    const index_t ntiles = static_cast<index_t>(g.csr_tile_col.size());
    g.csr_masks.assign(static_cast<std::size_t>(ntiles) * NT, Word{0});

    // Pass 2 (parallel): fill the CSR row masks; route extracted entries
    // to the range lists as (idx = src = col, vals = dst = row) edges,
    // bucketed by source below. Every mask word written belongs to a tile
    // of the range's own rows.
    parallel_for(
        nranges,
        [&](index_t rg) {
          std::vector<index_t> slot_of(g.tile_n, kEmptyTile);
          detail::PairList<index_t>& extracted = range_lists[rg];
          for (index_t tr = ranges[rg]; tr < ranges[rg + 1]; ++tr) {
            const offset_t t_begin = g.csr_tile_ptr[tr];
            const offset_t t_end = g.csr_tile_ptr[tr + 1];
            for (offset_t t = t_begin; t < t_end; ++t) {
              slot_of[g.csr_tile_col[t]] = static_cast<index_t>(t);
            }
            const index_t r_begin = tr * NT;
            const index_t r_end = std::min<index_t>(r_begin + NT, a.rows);
            for (index_t r = r_begin; r < r_end; ++r) {
              const index_t lr = r - r_begin;
              for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
                const index_t c = a.col_idx[i];
                const index_t t = slot_of[c / NT];
                if (t == kEmptyTile) {
                  extracted.push(c, r);
                  continue;
                }
                g.csr_masks[static_cast<std::size_t>(t) * NT + lr] |=
                    msb_bit<Word>(c % NT);
              }
            }
            for (offset_t t = t_begin; t < t_end; ++t) {
              slot_of[g.csr_tile_col[t]] = kEmptyTile;
            }
          }
        },
        pool, /*chunk=*/1);

    // Bucket the extracted edges by source (counting sort, range order ==
    // the serial row-major insertion order).
    g.side_ptr.assign(g.n + 1, 0);
    std::size_t total_extracted = 0;
    for (const auto& extracted : range_lists) {
      total_extracted += extracted.size();
      for (const index_t src : extracted.idx) ++g.side_ptr[src + 1];
    }
    g.side_dst.resize(total_extracted);
    for (index_t v = 0; v < g.n; ++v) {
      g.side_ptr[v + 1] += g.side_ptr[v];
    }
    g.build_side_summary();
    {
      std::vector<offset_t> cursor(g.side_ptr.begin(), g.side_ptr.end() - 1);
      for (const auto& extracted : range_lists) {
        for (std::size_t e = 0; e < extracted.size(); ++e) {
          g.side_dst[cursor[extracted.idx[e]]++] = extracted.vals[e];
        }
      }
    }

    g.shared_masks = share_symmetric && is_pattern_symmetric(a);
    g.build_csc_from_csr(pool);
    g.build_summaries(pool);
    g.build_chunks(pool);
    TILESPMSPV_POSTCONDITION(validate_bit_tile_graph(g),
                             "BitTileGraph::from_csr");
    return g;
  }

  /// True iff the sparsity pattern equals its transpose.
  static bool is_pattern_symmetric(const Csr<value_t>& a) {
    if (a.rows != a.cols) return false;
    const Csr<value_t> t = a.transpose();
    return t.row_ptr == a.row_ptr && t.col_idx == a.col_idx;
  }

  /// Total bytes of the heavy arrays.
  std::size_t payload_bytes() const {
    auto vb = [](const auto& v) {
      return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    return vb(csr_tile_ptr) + vb(csr_tile_col) + vb(csr_masks) +
           vb(csr_row_summary) + vb(csc_tile_ptr) + vb(csc_tile_row) +
           vb(csc_masks) + vb(csc_mirror) + vb(csc_col_summary) +
           vb(side_ptr) + vb(side_dst) + vb(side_summary) +
           vb(csr_chunk_ptr) + vb(csc_col_weight);
  }

  /// Moves the heavy arrays into `arena` (see TileMatrix::place).
  void place(std::shared_ptr<Arena> arena, ThreadPool* pool = nullptr) {
    assert(arena != nullptr);
    arena_place_buf(*arena, csr_tile_ptr, pool);
    arena_place_buf(*arena, csr_tile_col, pool);
    arena_place_buf(*arena, csr_masks, pool);
    arena_place_buf(*arena, csr_row_summary, pool);
    arena_place_buf(*arena, csc_tile_ptr, pool);
    arena_place_buf(*arena, csc_tile_row, pool);
    arena_place_buf(*arena, csc_masks, pool);
    arena_place_buf(*arena, csc_mirror, pool);
    arena_place_buf(*arena, csc_col_summary, pool);
    arena_place_buf(*arena, side_ptr, pool);
    arena_place_buf(*arena, side_dst, pool);
    arena_place_buf(*arena, side_summary, pool);
    arena_place_buf(*arena, csc_col_weight, pool);
    placed = arena->placement();
    storage = std::shared_ptr<const void>(arena, arena.get());
  }

 private:
  void build_summaries(ThreadPool* pool) {
    const index_t ntiles = num_tiles();
    csr_row_summary.assign(ntiles, Word{0});
    csc_col_summary.assign(ntiles, Word{0});
    parallel_for(
        ntiles,
        [&](index_t t) {
          for (index_t l = 0; l < NT; ++l) {
            if (csr_masks[static_cast<std::size_t>(t) * NT + l] != 0) {
              csr_row_summary[t] |= msb_bit<Word>(l);
            }
          }
        },
        pool, /*chunk=*/64);
    // Second loop after the barrier: the shared-mask branch reads the
    // fully-built CSR summaries through the mirror references.
    parallel_for(
        ntiles,
        [&](index_t t) {
          if (shared_masks) {
            csc_col_summary[t] = csr_row_summary[csc_mirror[t]];
          } else {
            for (index_t l = 0; l < NT; ++l) {
              if (csc_masks[static_cast<std::size_t>(t) * NT + l] != 0) {
                csc_col_summary[t] |= msb_bit<Word>(l);
              }
            }
          }
        },
        pool, /*chunk=*/64);
  }

  /// Derives the CSC tile form from the CSR one (tile-grid transpose plus
  /// per-tile mask transpose, or mirror references when masks are shared).
  /// The cheap position pass stays serial (cursor sweep over tile
  /// metadata); the per-tile payload — NT×NT mask transpose or mirror
  /// lookup — runs in parallel over tile columns, each of which owns a
  /// disjoint slice of the CSC arrays.
  void build_csc_from_csr(ThreadPool* pool) {
    const index_t ntiles = num_tiles();
    csc_tile_ptr.assign(tile_n + 1, 0);
    for (index_t tc : csr_tile_col) {
      ++csc_tile_ptr[tc + 1];
    }
    for (index_t c = 0; c < tile_n; ++c) {
      csc_tile_ptr[c + 1] += csc_tile_ptr[c];
    }
    csc_tile_row.resize(ntiles);
    if (shared_masks) {
      csc_mirror.resize(ntiles);
    } else {
      csc_masks.assign(static_cast<std::size_t>(ntiles) * NT, Word{0});
    }
    // CSR-order source tile of each CSC-order slot, recorded by the serial
    // position pass and consumed by the parallel payload pass.
    std::vector<offset_t> csc_src(static_cast<std::size_t>(ntiles));
    std::vector<offset_t> cursor(csc_tile_ptr.begin(), csc_tile_ptr.end() - 1);
    for (index_t tr = 0; tr < tile_n; ++tr) {
      for (offset_t t = csr_tile_ptr[tr]; t < csr_tile_ptr[tr + 1]; ++t) {
        const index_t tc = csr_tile_col[t];
        const offset_t u = cursor[tc]++;
        csc_tile_row[u] = tr;
        csc_src[u] = t;
      }
    }
    parallel_for(
        tile_n,
        [&](index_t tc) {
          for (offset_t u = csc_tile_ptr[tc]; u < csc_tile_ptr[tc + 1]; ++u) {
            const index_t tr = csc_tile_row[u];
            if (shared_masks) {
              // Column masks of (tr, tc) == row masks of the mirror
              // (tc, tr); find it in tile row tc (the kept-tile pattern is
              // symmetric because extraction decisions depend only on
              // per-tile nnz).
              csc_mirror[u] = find_csr_tile(tc, tr);
            } else {
              // Transpose the NT×NT bit tile: row mask bit lc becomes
              // column mask bit lr.
              const Word* row_masks =
                  &csr_masks[static_cast<std::size_t>(csc_src[u]) * NT];
              Word* col_masks = &csc_masks[static_cast<std::size_t>(u) * NT];
              for (index_t lr = 0; lr < NT; ++lr) {
                for_each_set_bit(row_masks[lr], [&](int lc) {
                  col_masks[lc] |= msb_bit<Word>(lr);
                });
              }
            }
          }
        },
        pool, /*chunk=*/4);
  }

  /// Builds the kernel scheduling metadata: weighted tile-row chunk
  /// boundaries for the matrix-driven kernels and per-column weights for
  /// the frontier-driven one. Weights count summary popcounts — the unit
  /// of work the BFS kernels actually perform per tile.
  void build_chunks(ThreadPool* pool) {
    csr_chunk_ptr = build_weighted_chunks(
        tile_n, kChunkTargetWork, [&](index_t tr) {
          offset_t w = 1;
          for (offset_t t = csr_tile_ptr[tr]; t < csr_tile_ptr[tr + 1]; ++t) {
            w += kTileMetaWork + popcount(csr_row_summary[t]);
          }
          return w;
        });
    csc_col_weight.assign(static_cast<std::size_t>(tile_n), 0);
    parallel_for(
        tile_n,
        [&](index_t tc) {
          offset_t w = 1;
          for (offset_t t = csc_tile_ptr[tc]; t < csc_tile_ptr[tc + 1]; ++t) {
            w += kTileMetaWork + popcount(csc_col_summary[t]);
          }
          csc_col_weight[tc] = w;
        },
        pool, /*chunk=*/64);
  }

  /// CSR-order index of grid tile (tr, tc); the tile must exist.
  offset_t find_csr_tile(index_t tr, index_t tc) const {
    const auto* begin = csr_tile_col.data() + csr_tile_ptr[tr];
    const auto* end = csr_tile_col.data() + csr_tile_ptr[tr + 1];
    const auto* it = std::lower_bound(begin, end, tc);
    assert(it != end && *it == tc);
    return csr_tile_ptr[tr] + (it - begin);
  }
};

}  // namespace tilespmspv
