// Concurrency regression target for the BFS merge and tally: repeated
// TileBFS runs on an 8-thread pool, checked against the serial reference.
// The interesting assertions live in the scheduler, not here — this
// binary is built and run under ThreadSanitizer by CI to prove that the
// per-share output words and their owner-computes merge, the owners'
// level tally and visited-mask writes, and the leader's swap of the
// frontier segments are race-free across the team's phase ends. CI also
// runs it pinned to one CPU, where an 8-member team must not spin its
// way through a traversal.
#include <gtest/gtest.h>

#include "baselines/serial_bfs.hpp"
#include "bfs/tile_bfs.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "util/prng.hpp"

namespace tilespmspv {
namespace {

Csr<value_t> undirected(index_t n, double density, std::uint64_t seed) {
  Coo<value_t> coo = gen_erdos_renyi(n, n, density, seed);
  coo.symmetrize();
  return Csr<value_t>::from_coo(coo);
}

// Long thin grid plus a few undirected shortcuts: every frontier stays a
// handful of words (every level is sparse), and each
// shortcut lands alone in an off-diagonal tile, so it is extracted and
// the side pass runs.
Csr<value_t> thin_grid_with_shortcuts(std::uint64_t seed) {
  Coo<value_t> coo = gen_grid2d(8, 2000, 1.0, seed);
  const index_t n = coo.rows;
  Prng rng(seed);
  for (int k = 0; k < 4; ++k) {
    coo.push(static_cast<index_t>(rng.next_below(n)),
             static_cast<index_t>(rng.next_below(n)), 1.0);
  }
  coo.symmetrize();
  return Csr<value_t>::from_coo(coo);
}

TEST(BfsTally, ChunkedTalliesRaceFreeUnderContention) {
  ThreadPool pool(8);
  BfsWorkspace ws;
  // Which frontier shapes a case must produce: sparse levels (fewer than
  // num_words/8 produced words, where most owners merge nothing) and
  // dense ones (every owner busy). The words a level produced are the
  // next level's frontier_words.
  enum class Branches { kAny, kSparseOnly, kBoth };
  struct Case {
    Csr<value_t> graph;
    index_t source;
    Branches branches;
  };
  std::vector<Case> cases;
  // Dense-tiled: push-CSR dominates, owned tile-row writes.
  cases.push_back({undirected(3000, 0.004, 41), 0, Branches::kAny});
  // Hub-heavy: push-CSC, many tasks producing the same output words.
  // From the low-degree vertex 1000 the head levels are sparse and the
  // middle ones dense.
  {
    RmatParams p;
    p.scale = 11;
    p.edge_factor = 12;
    const Csr<value_t> rmat = Csr<value_t>::from_coo(gen_rmat(p, 42));
    cases.push_back({rmat, 3, Branches::kAny});
    cases.push_back({rmat, 1000, Branches::kBoth});
  }
  // Long diameter: many levels with tiny frontiers — the tally and the
  // frontier swap run once per level, so the barriers fire thousands of
  // times per run.
  cases.push_back({Csr<value_t>::from_coo(gen_grid2d(70, 70, 1.0, 43)), 0,
                   Branches::kAny});
  cases.push_back({thin_grid_with_shortcuts(44), 0, Branches::kSparseOnly});

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto expect = serial_bfs(cases[c].graph, cases[c].source);
    std::vector<index_t> at_level(expect.size() + 1, 0);
    for (index_t l : expect) {
      if (l >= 0) ++at_level[l];
    }
    for (unsigned mask : {1u, 2u, 4u, 7u}) {
      TileBfsConfig cfg;
      cfg.kernel_mask = mask;
      TileBfs bfs(cases[c].graph, cfg, &pool);
      if (cases[c].branches == Branches::kSparseOnly) {
        ASSERT_GT(bfs.side_edge_count(), 0) << "case=" << c;
      }
      const index_t dense_words =
          ceil_div<index_t>(cases[c].graph.rows, bfs.tile_size()) / 8;
      // Several runs per configuration: TSan interleavings differ per
      // run, and workspace reuse checks the end-of-run invariants too.
      for (int rep = 0; rep < 3; ++rep) {
        const BfsResult r = bfs.run(cases[c].source, ws);
        ASSERT_EQ(r.levels, expect)
            << "case=" << c << " mask=" << mask << " rep=" << rep;
        int sparse = 0;
        int dense = 0;
        for (std::size_t i = 0; i < r.iterations.size(); ++i) {
          const BfsIterationLog& log = r.iterations[i];
          ASSERT_EQ(log.frontier_size, at_level[log.level - 1])
              << "case=" << c << " mask=" << mask << " level=" << log.level;
          if (i > 0) ++(log.frontier_words >= dense_words ? dense : sparse);
        }
        if (cases[c].branches == Branches::kSparseOnly) {
          EXPECT_EQ(dense, 0) << "case=" << c << " mask=" << mask;
        }
        if (cases[c].branches == Branches::kBoth) {
          EXPECT_GT(dense, 0) << "case=" << c << " mask=" << mask;
          EXPECT_GT(sparse, 0) << "case=" << c << " mask=" << mask;
        }
      }
    }
  }
}

// The parallel BitTileGraph build must be deterministic: identical output
// regardless of pool size (per-range buffers are merged in range order).
TEST(BfsTally, ParallelBuildDeterministicAcrossPoolSizes) {
  const Csr<value_t> a = undirected(4000, 0.003, 44);
  ThreadPool p1(1), p8(8);
  TileBfs serial_built(a, {}, &p1);
  TileBfs parallel_built(a, {}, &p8);
  ASSERT_EQ(serial_built.num_tiles(), parallel_built.num_tiles());
  ASSERT_EQ(serial_built.side_edge_count(), parallel_built.side_edge_count());
  const auto expect = serial_bfs(a, 7);
  ASSERT_EQ(serial_built.run(7).levels, expect);
  ASSERT_EQ(parallel_built.run(7).levels, expect);
}

}  // namespace
}  // namespace tilespmspv
