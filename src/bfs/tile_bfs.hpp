// TileBFS (paper §3.4): direction-optimizing BFS over the bitmask tiled
// adjacency structure, with three kernels selected per iteration:
//
//   K1 Push-CSC — frontier-driven column merge (Alg. 5); chosen when the
//      frontier density is below `kPushCsrSparsity` and many vertices are
//      still unvisited.
//   K2 Push-CSR — matrix-driven row AND/OR (Alg. 6); chosen when the
//      frontier density is at least `kPushCsrSparsity`.
//   K3 Pull-CSC — unvisited-driven pull with early exit (Alg. 7); chosen
//      when few unvisited vertices remain.
//
// The tile size follows the paper's rule: order > 10,000
// (`TileBfs::kOrderThreshold`) -> 64×64 tiles, otherwise 32×32 (§3.4).
// Very sparse tiles are extracted to an edge list traversed by a separate
// edge-parallel pass each iteration (the paper delegates that part to
// GSwitch; the pass here implements the equivalent frontier expansion
// directly and merges into the same output vector).
//
// Directed-graph note: the paper stores the CSC form A1 and, for undirected
// graphs, observes A1 == A2. Our pull kernel reads the row-oriented masks
// (in-neighbor direction), which coincides with the paper's column masks on
// undirected inputs and stays correct on directed ones.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "parallel/thread_pool.hpp"
#include "util/types.hpp"

namespace tilespmspv {

enum class BfsKernel { kPushCsc, kPushCsr, kPullCsc };

const char* bfs_kernel_name(BfsKernel k);

struct TileBfsConfig {
  /// Kernel-enable bitmask for the Fig. 9 ablation: bit0 = K1 Push-CSC,
  /// bit1 = K2 Push-CSR, bit2 = K3 Pull-CSC. At least one bit must be set.
  unsigned kernel_mask = 7;
  /// Tiles with at most this many edges are extracted to the side edge
  /// list (0 disables extraction).
  index_t extract_threshold = 2;
  /// Overrides the order rule with a fixed tile size (16, 32 or 64); 0
  /// keeps the automatic rule. Exists for the differential fuzz harness,
  /// which exercises every word width against the serial reference.
  int forced_tile_size = 0;
};

struct BfsIterationLog {
  int level = 0;
  BfsKernel kernel = BfsKernel::kPushCsc;
  index_t frontier_size = 0;      // |x| entering the iteration
  index_t unvisited = 0;          // n - |m| entering the iteration
  double frontier_density = 0.0;  // |x| / n, the selector's K2 input
  double unvisited_frac = 0.0;    // unvisited / n, the selector's K3 input
  double ms = 0.0;
  // Non-empty frontier words entering the iteration — the selector's
  // second K2 input (frontier_words_frac guard). Carried incrementally
  // from the previous level's produced-word tally, never re-scanned.
  index_t frontier_words = 0;
};

struct BfsResult {
  std::vector<index_t> levels;  // per-vertex BFS level, -1 if unreachable
  std::vector<BfsIterationLog> iterations;
  double total_ms = 0.0;

  index_t visited_count() const {
    index_t c = 0;
    for (index_t l : levels) {
      if (l >= 0) ++c;
    }
    return c;
  }
};

/// Hoisted per-query scratch (frontier bit vectors, frontier segments,
/// per-share output words and buckets, chunk bounds), mirroring
/// SpmspvWorkspace: create once, pass to TileBfs::run repeatedly, and
/// steady-state BFS levels allocate nothing. A workspace adapts to
/// whatever graph size / tile size / pool size it is used with, but must
/// not be shared by concurrent runs. The contents are an implementation
/// detail of the BFS engine.
class BfsWorkspace {
 public:
  BfsWorkspace();
  ~BfsWorkspace();
  BfsWorkspace(BfsWorkspace&&) noexcept;
  BfsWorkspace& operator=(BfsWorkspace&&) noexcept;

 private:
  friend class TileBfs;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Preprocesses a square adjacency matrix once (tiling + bitmask build) and
/// answers BFS queries from arbitrary sources.
class TileBfs {
 public:
  /// Matrix order above which 64×64 tiles are used instead of 32×32.
  static constexpr index_t kOrderThreshold = 10000;

  TileBfs(const Csr<value_t>& a, TileBfsConfig cfg = {},
          ThreadPool* pool = nullptr);

  /// Zero-copy load of a pre-converted graph tile file (see
  /// formats/tile_file.hpp and `tilespmspv_cli convert --graph`): the mask
  /// arrays stay mmapped, the tile size comes from the file header (must
  /// be 16, 32 or 64), and cfg's tiling knobs (extract_threshold,
  /// forced_tile_size) and the order rule are ignored — they were baked in
  /// at conversion time. preprocess_ms() then measures the map + validate
  /// cost, which is what the ≥10x load-speedup claim compares against
  /// from_csr conversion.
  explicit TileBfs(const std::string& graph_path, TileBfsConfig cfg = {},
                   ThreadPool* pool = nullptr);

  ~TileBfs();
  TileBfs(TileBfs&&) noexcept;
  TileBfs& operator=(TileBfs&&) noexcept;

  /// One-shot query: creates a fresh workspace internally. Several threads
  /// may call it at once on one TileBfs, and so on one pool: each call
  /// leads its own pool team and waits only for that team's members (see
  /// ThreadPool's dispatch rules).
  BfsResult run(index_t source) const;

  /// Steady-state query: reuses `ws` so repeated traversals allocate only
  /// the result vector. A traversal runs as one team on the pool
  /// (ThreadPool::lead_team), two phases per level. Not thread-safe with
  /// respect to `ws`.
  BfsResult run(index_t source, BfsWorkspace& ws) const;

  /// Tile size selected by the order rule (32 or 64).
  int tile_size() const;
  /// Number of edges (nnz) including the extracted part.
  offset_t edges() const;
  /// Number of stored (non-extracted) tiles.
  index_t num_tiles() const;
  /// Edges extracted into the side list.
  offset_t side_edge_count() const;
  /// Wall time of the preprocessing (format conversion), for Fig. 11.
  double preprocess_ms() const { return preprocess_ms_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double preprocess_ms_ = 0.0;
};

}  // namespace tilespmspv
