// Concurrency regression target for the chunked BFS tallies: repeated
// TileBFS runs on an 8-thread pool, checked against the serial reference.
// The interesting assertions live in the scheduler, not here — this
// binary is built and run under ThreadSanitizer by CI to prove that the
// per-chunk produced/visited tallies, the per-pool-slot output words and
// their caller-side merge, and the visited-mask merge are race-free
// across the phase barriers.
#include <gtest/gtest.h>

#include "baselines/serial_bfs.hpp"
#include "bfs/tile_bfs.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"

namespace tilespmspv {
namespace {

Csr<value_t> undirected(index_t n, double density, std::uint64_t seed) {
  Coo<value_t> coo = gen_erdos_renyi(n, n, density, seed);
  coo.symmetrize();
  return Csr<value_t>::from_coo(coo);
}

TEST(BfsTally, ChunkedTalliesRaceFreeUnderContention) {
  ThreadPool pool(8);
  BfsWorkspace ws;
  struct Case {
    Csr<value_t> graph;
    index_t source;
  };
  std::vector<Case> cases;
  // Dense-tiled: push-CSR dominates, owned tile-row writes.
  cases.push_back({undirected(3000, 0.004, 41), 0});
  // Hub-heavy: push-CSC, many tasks producing the same output words.
  {
    RmatParams p;
    p.scale = 11;
    p.edge_factor = 12;
    cases.push_back({Csr<value_t>::from_coo(gen_rmat(p, 42)), 3});
  }
  // Long diameter: many levels with tiny frontiers — the tally and the
  // frontier swap run once per level, so the barriers fire thousands of
  // times per run.
  cases.push_back({Csr<value_t>::from_coo(gen_grid2d(70, 70, 1.0, 43)), 0});

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto expect = serial_bfs(cases[c].graph, cases[c].source);
    for (unsigned mask : {1u, 2u, 4u, 7u}) {
      TileBfsConfig cfg;
      cfg.kernel_mask = mask;
      TileBfs bfs(cases[c].graph, cfg, &pool);
      // Several runs per configuration: TSan interleavings differ per
      // run, and workspace reuse checks the end-of-run invariants too.
      for (int rep = 0; rep < 3; ++rep) {
        ASSERT_EQ(bfs.run(cases[c].source, ws).levels, expect)
            << "case=" << c << " mask=" << mask << " rep=" << rep;
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
