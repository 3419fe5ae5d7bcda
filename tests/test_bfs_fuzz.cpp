// Differential BFS fuzzing: random (graph, source, configuration) draws,
// TileBFS compared against the serial queue reference on each. The sweep
// covers every tile width (forced_tile_size 16/32/64), every forced
// kernel of the Fig. 9 ablation, and both extraction settings, so the
// SIMD word kernels, the work-weighted frontier scheduling and the
// incremental level tallies are all exercised on inputs nobody
// hand-picked. Seeds are fixed, so failures replay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "bfs/tile_bfs.hpp"
#include "formats/tile_file.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "obs/counters.hpp"
#include "tile/bit_tile_graph.hpp"
#include "util/bitkernels.hpp"
#include "util/prng.hpp"
#include "util/simd.hpp"

namespace tilespmspv {
namespace {

// TileBFS reads the adjacency convention A[i][j] != 0 <=> edge j -> i,
// so on directed draws the serial reference (which scans out-edge rows)
// runs on the transpose; on symmetric draws both coincide.
struct GraphDraw {
  Csr<value_t> adjacency;  // what TileBfs consumes
  Csr<value_t> out_edges;  // what serial_bfs consumes
};

GraphDraw random_graph(Prng& rng) {
  const auto n = static_cast<index_t>(40 + rng.next_below(700));
  const double density = rng.next_double(0.001, 0.05);
  const std::uint64_t seed = rng.next_u64();
  Coo<value_t> coo = gen_erdos_renyi(n, n, density, seed);
  const bool directed = rng.next_below(2) == 0;  // directed half the time
  if (!directed) coo.symmetrize();
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  Csr<value_t> out = directed ? a.transpose() : a;
  return {std::move(a), std::move(out)};
}

TEST(BfsFuzz, TileBfsMatchesSerialAcrossWidthsKernelsAndExtraction) {
  Prng meta_rng(0xBF5F);
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    const GraphDraw g = random_graph(meta_rng);
    const Csr<value_t>& a = g.adjacency;
    const auto src = static_cast<index_t>(meta_rng.next_below(
        static_cast<std::uint64_t>(a.rows)));
    const auto expect = serial_bfs(g.out_edges, src);
    for (int nt : {16, 32, 64}) {
      for (unsigned mask : {1u, 2u, 4u, 7u}) {
        for (index_t extract : {index_t{0}, index_t{2}}) {
          SCOPED_TRACE("round " + std::to_string(round) + " n=" +
                       std::to_string(a.rows) + " src=" +
                       std::to_string(src) + " nt=" + std::to_string(nt) +
                       " mask=" + std::to_string(mask) + " extract=" +
                       std::to_string(extract));
          TileBfsConfig cfg;
          cfg.forced_tile_size = nt;
          cfg.kernel_mask = mask;
          cfg.extract_threshold = extract;
          TileBfs bfs(a, cfg, &pool);
          ASSERT_EQ(bfs.tile_size(), nt);
          ASSERT_EQ(bfs.run(src).levels, expect);
        }
      }
    }
  }
}

TEST(BfsFuzz, ForcedTileSizeRejectsInvalidValues) {
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(50, 50, 0.05, 1));
  for (int nt : {1, 8, 24, 128}) {
    TileBfsConfig cfg;
    cfg.forced_tile_size = nt;
    EXPECT_THROW(TileBfs(a, cfg), std::invalid_argument) << nt;
  }
}

// One workspace reused across graphs of different sizes, tile widths,
// kernels, sources and pools must behave exactly like a fresh workspace
// per query: the end-of-run invariant (all scratch bit vectors and
// per-pool-slot output arrays zeroed, slot lists cleared) is what
// steady-state reuse relies on. The pools run 1, then 8, then 2 threads,
// so the per-slot arrays are grown, re-sized for a new n, and left
// partly unused; a missing, mis-sized or dirty slot array shows up as a
// wrong level or a repeat run that differs from the first.
TEST(BfsFuzz, WorkspaceReuseMatchesOneShotRuns) {
  Prng meta_rng(0x5EED);
  ThreadPool p1(1), p8(8), p2(2);
  BfsWorkspace ws;
  for (ThreadPool* pool : {&p1, &p8, &p2}) {
    for (int nt : {16, 32, 64}) {
      const GraphDraw g = random_graph(meta_rng);
      for (unsigned mask : {7u, 1u, 2u, 4u}) {
        TileBfsConfig cfg;
        cfg.forced_tile_size = nt;
        cfg.kernel_mask = mask;
        TileBfs bfs(g.adjacency, cfg, pool);
        const auto src = static_cast<index_t>(meta_rng.next_below(
            static_cast<std::uint64_t>(g.adjacency.rows)));
        SCOPED_TRACE("pool " + std::to_string(pool->size()) + " nt=" +
                     std::to_string(nt) + " n=" +
                     std::to_string(g.adjacency.rows) + " mask=" +
                     std::to_string(mask) + " src=" + std::to_string(src));
        const BfsResult reused = bfs.run(src, ws);
        ASSERT_EQ(reused.levels, serial_bfs(g.out_edges, src));
        ASSERT_EQ(bfs.run(src, ws).levels, reused.levels);
        ASSERT_EQ(bfs.run(src).levels, reused.levels);
      }
    }
  }
}

// Scale-free graph with hubs: stresses the weighted frontier chunking
// (hub columns get their own chunks) and the hybrid produced-slot merge.
TEST(BfsFuzz, RmatHubGraphsAcrossWidths) {
  Prng meta_rng(0xA11CE);
  ThreadPool pool(4);
  BfsWorkspace ws;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    RmatParams p;
    p.scale = 9;
    p.edge_factor = 10;
    const Csr<value_t> a = Csr<value_t>::from_coo(gen_rmat(p, seed));
    const auto src = static_cast<index_t>(meta_rng.next_below(
        static_cast<std::uint64_t>(a.rows)));
    const auto expect = serial_bfs(a, src);
    for (int nt : {16, 32, 64}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " nt=" +
                   std::to_string(nt) + " src=" + std::to_string(src));
      TileBfsConfig cfg;
      cfg.forced_tile_size = nt;
      TileBfs bfs(a, cfg, &pool);
      ASSERT_EQ(bfs.run(src, ws).levels, expect);
    }
  }
}

// Road-like draw for the side-edge summary: a 30×30 grid (dense diagonal
// tiles, kept) plus ~0.6 random long-range edges per vertex, which land in
// sparse off-diagonal tiles and are extracted. Every frontier word thus
// mixes vertices with and without extracted out-edges. Directed draws keep
// the long-range edges one-way, so a side list indexed by destination
// instead of source would disagree with the reference.
GraphDraw grid_with_shortcuts(bool directed, std::uint64_t seed) {
  Coo<value_t> coo = gen_grid2d(30, 30);
  const index_t n = coo.rows;
  Prng rng(seed);
  for (index_t k = 0; k < n * 6 / 10; ++k) {
    const auto src = static_cast<index_t>(rng.next_below(n));
    const auto dst = static_cast<index_t>(rng.next_below(n));
    if (src != dst) coo.push(dst, src, 1.0);  // A[dst][src]: edge src -> dst
  }
  if (directed) {
    coo.sort_row_major();
    coo.sum_duplicates();
  } else {
    coo.symmetrize();
  }
  Csr<value_t> a = Csr<value_t>::from_coo(coo);
  Csr<value_t> out = directed ? a.transpose() : a;
  return {std::move(a), std::move(out)};
}

/// Side-summary words derived from the adjacency alone: edge src -> dst
/// (entry A[dst][src]) is extracted iff its NT×NT tile holds at most
/// `extract` entries, and it sets bit src % NT of word src / NT.
template <int NT>
std::vector<bitword_t<NT>> expected_side_summary(const Csr<value_t>& a,
                                                 index_t extract) {
  std::map<std::pair<index_t, index_t>, index_t> tile_nnz;
  for (index_t r = 0; r < a.rows; ++r) {
    for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      ++tile_nnz[{r / NT, a.col_idx[i] / NT}];
    }
  }
  std::vector<bitword_t<NT>> words(
      static_cast<std::size_t>(ceil_div<index_t>(a.rows, NT)), 0);
  for (index_t r = 0; r < a.rows; ++r) {
    for (offset_t i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      const index_t c = a.col_idx[i];
      if (tile_nnz[{r / NT, c / NT}] <= extract) {
        words[c / NT] |= msb_bit<bitword_t<NT>>(c % NT);
      }
    }
  }
  return words;
}

/// bfs_side_edges of one traversal: the side out-degree of every vertex
/// that was a frontier of an expanded level. A level expands the vertices
/// at depth d while some vertex deeper than d is still unvisited.
std::uint64_t expected_side_edges(const std::vector<offset_t>& side_deg,
                                  const std::vector<index_t>& levels) {
  index_t max_level = 0;
  for (index_t l : levels) max_level = std::max(max_level, l);
  std::vector<std::uint64_t> deg_at(static_cast<std::size_t>(max_level) + 1);
  std::vector<index_t> count_at(deg_at.size());
  for (std::size_t u = 0; u < levels.size(); ++u) {
    if (levels[u] < 0) continue;
    deg_at[levels[u]] += static_cast<std::uint64_t>(side_deg[u]);
    ++count_at[levels[u]];
  }
  std::uint64_t total = 0;
  index_t visited = 0;
  for (index_t d = 0; d <= max_level; ++d) {
    visited += count_at[d];
    if (visited < static_cast<index_t>(levels.size())) total += deg_at[d];
  }
  return total;
}

template <int NT>
void check_side_summary(const GraphDraw& draw, index_t extract) {
  using Word = bitword_t<NT>;
  const Csr<value_t>& a = draw.adjacency;
  const auto g = BitTileGraph<NT>::from_csr(a, extract);
  ASSERT_GT(g.side_edge_count(), 0);
  const std::vector<Word> expect = expected_side_summary<NT>(a, extract);
  ASSERT_EQ(g.side_summary.size(), expect.size());
  bool mixed = false;
  for (std::size_t s = 0; s < expect.size(); ++s) {
    ASSERT_EQ(g.side_summary[s], expect[s]) << "word " << s;
    Word valid = 0;  // bits of vertices inside [0, n)
    for (index_t u = static_cast<index_t>(s) * NT;
         u < std::min<index_t>(g.n, static_cast<index_t>(s + 1) * NT); ++u) {
      valid |= msb_bit<Word>(u % NT);
    }
    mixed = mixed || (expect[s] != 0 && expect[s] != valid);
  }
  ASSERT_TRUE(mixed) << "draw must mix side and non-side vertices in a word";

  // Derived data: the mapped graph rebuilds the same words from side_ptr.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tilespmspv_bfs_fuzz_side_" + std::to_string(NT) + ".ttlf"))
          .string();
  write_bit_tile_graph_file<NT>(path, g);
  struct Remove {
    const std::string& p;
    ~Remove() { std::remove(p.c_str()); }
  } remove{path};
  ASSERT_TRUE(map_bit_tile_graph_file<NT>(path).side_summary ==
              g.side_summary);

  std::vector<offset_t> side_deg(static_cast<std::size_t>(g.n));
  for (index_t u = 0; u < g.n; ++u) {
    side_deg[u] = g.side_ptr[u + 1] - g.side_ptr[u];
  }
  TileBfsConfig cfg;
  cfg.forced_tile_size = NT;
  cfg.extract_threshold = extract;
  ThreadPool p1(1), p2(2), p8(8);
  for (ThreadPool* pool : {&p1, &p2, &p8}) {
    const TileBfs owned(a, cfg, pool);
    const TileBfs mapped(path, cfg, pool);
    ASSERT_EQ(owned.side_edge_count(), g.side_edge_count());
    for (index_t src : {index_t{0}, a.rows / 2, a.rows - 1}) {
      const std::vector<index_t> ref = serial_bfs(draw.out_edges, src);
      for (const TileBfs* bfs : {&owned, &mapped}) {
        SCOPED_TRACE("pool " + std::to_string(pool->size()) + " src=" +
                     std::to_string(src) +
                     (bfs == &owned ? " owned" : " mapped"));
        const obs::CounterSnapshot before = obs::counters_snapshot();
        ASSERT_EQ(bfs->run(src).levels, ref);
        const obs::CounterSnapshot d = obs::counters_snapshot() - before;
        if (obs::counters_enabled()) {
          ASSERT_EQ(d[obs::Counter::kBfsSideEdges],
                    expected_side_edges(side_deg, ref));
        }
      }
    }
  }
}

TEST(BfsFuzz, SideSummaryGatesTheSidePass) {
  constexpr index_t kExtract = 8;  // keeps grid tiles, extracts shortcuts
  for (bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    const GraphDraw draw = grid_with_shortcuts(directed, directed ? 71 : 72);
    check_side_summary<16>(draw, kExtract);
    check_side_summary<32>(draw, kExtract);
    check_side_summary<64>(draw, kExtract);
  }
}

// The bit-kernel layer guarantees a scalar twin with identical results
// for every word kernel; this fuzzes the active tier (AVX2, SSE2 or
// scalar — whatever the binary was built with) against the twins over
// random word spans per tile width, hitting n = 0, 1 and vector-tail
// lengths. Equality is exact: the kernels are pure bit arithmetic.
template <typename W>
void fuzz_bit_kernel_twins(std::uint64_t seed) {
  Prng rng(seed);
  for (int round = 0; round < 150; ++round) {
    const auto n = static_cast<index_t>(rng.next_below(70));  // covers 0, 1
    std::vector<W> a(n), b(n);
    for (index_t i = 0; i < n; ++i) {
      // Mix dense, sparse and zero words so the nonzero-block scans and
      // the or_reduce folds see both early-outs and full work.
      const int kind = static_cast<int>(rng.next_below(4));
      const W r = static_cast<W>(rng.next_u64());
      a[i] = kind == 0 ? W{0} : kind == 1 ? static_cast<W>(r & (r >> 1) & (r >> 3))
                                          : r;
      b[i] = static_cast<W>(rng.next_u64());
    }
    SCOPED_TRACE("round " + std::to_string(round) + " n=" +
                 std::to_string(n) + " width=" +
                 std::to_string(sizeof(W) * 8));

    ASSERT_EQ(bitk::popcount_words(a.data(), n),
              bitk::popcount_words_scalar(a.data(), n));
    ASSERT_EQ(bitk::or_reduce(a.data(), n),
              bitk::or_reduce_scalar(a.data(), n));
    ASSERT_EQ(bitk::any_nonzero(a.data(), n),
              bitk::any_nonzero_scalar(a.data(), n));

    std::vector<W> dst_v(b), dst_s(b);
    bitk::or_into(dst_v.data(), a.data(), n);
    bitk::or_into_scalar(dst_s.data(), a.data(), n);
    ASSERT_EQ(dst_v, dst_s);

    std::vector<W> out_v(n), out_s(n);
    bitk::andnot_words(a.data(), b.data(), out_v.data(), n);
    bitk::andnot_words_scalar(a.data(), b.data(), out_s.data(), n);
    ASSERT_EQ(out_v, out_s);

    const auto base = static_cast<index_t>(rng.next_below(1000));
    std::vector<index_t> slots_v(n), slots_s(n);
    const index_t kv =
        bitk::collect_nonzero(a.data(), n, base, slots_v.data());
    const index_t ks =
        bitk::collect_nonzero_scalar(a.data(), n, base, slots_s.data());
    ASSERT_EQ(kv, ks);
    slots_v.resize(static_cast<std::size_t>(kv));
    slots_s.resize(static_cast<std::size_t>(ks));
    ASSERT_EQ(slots_v, slots_s);

    // and_broadcast_hits reads exactly NT mask words.
    constexpr index_t kNt = static_cast<index_t>(sizeof(W)) * 8;
    std::vector<W> masks(kNt);
    for (index_t i = 0; i < kNt; ++i) {
      masks[i] = static_cast<W>(rng.next_u64());
      if (rng.next_below(3) == 0) masks[i] = 0;
    }
    const W x = static_cast<W>(rng.next_u64());
    ASSERT_EQ(bitk::and_broadcast_hits(masks.data(), x),
              bitk::and_broadcast_hits_scalar(masks.data(), x));
    ASSERT_EQ(bitk::and_broadcast_hits(masks.data(), W{0}), W{0});
  }
}

TEST(BfsFuzz, BitKernelTwinsMatch16) {
  SCOPED_TRACE(std::string("active isa: ") + simd::active_isa());
  fuzz_bit_kernel_twins<std::uint16_t>(0xB16);
}

TEST(BfsFuzz, BitKernelTwinsMatch32) {
  SCOPED_TRACE(std::string("active isa: ") + simd::active_isa());
  fuzz_bit_kernel_twins<std::uint32_t>(0xB32);
}

TEST(BfsFuzz, BitKernelTwinsMatch64) {
  SCOPED_TRACE(std::string("active isa: ") + simd::active_isa());
  fuzz_bit_kernel_twins<std::uint64_t>(0xB64);
}

}  // namespace
}  // namespace tilespmspv
