// Deterministic ranges and the owner-computes apply under contention. The
// CSC kernel cuts its active x tiles into ranges, each range files its
// products by the owner of their output rows, and each owner applies its
// lists in range order; the CSR side pass, which the block engine runs at
// k lanes, goes through the same apply. Range boundaries come from the
// matrix and x alone, so every form's result is bitwise identical across
// pool sizes, shard counts, repeated runs and owned vs mapped storage —
// the first test checks exactly that for all five entry points and the
// apps built on the block engine. The others hammer the apply with many
// tile columns scattering into few output rows on pools of several sizes,
// so a data race in the list ownership or the apply hand-off is visible to
// ThreadSanitizer (CI runs this binary under TSan) and any lost update
// breaks the exact-value checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "apps/betweenness.hpp"
#include "apps/ms_bfs.hpp"
#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/tile_spmspm.hpp"
#include "core/tile_spmspv.hpp"
#include "formats/tile_file.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "obs/counters.hpp"
#include "tile/tile_vector_block.hpp"

namespace tilespmspv {
namespace {

bool bitwise_equal(const SparseVec<value_t>& a, const SparseVec<value_t>& b) {
  return a.n == b.n && a.idx == b.idx && a.vals.size() == b.vals.size() &&
         (a.vals.empty() ||
          std::memcmp(a.vals.data(), b.vals.data(),
                      a.vals.size() * sizeof(value_t)) == 0);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// One pool's results for every form on every input vector, computed on one
// workspace (and one semiring operator) `reps` times over; each repeat must
// reproduce the first bit for bit. Per vector the CSR, CSC, masked and
// semiring forms, then one lane per vector of the block engine on all the
// vectors as one block.
struct FormRunner {
  const Csr<value_t>& a;
  const TileMatrix<value_t>& tiled;
  const TileMatrix<value_t>& tiled_t;
  const std::vector<SparseVec<value_t>>& xs;
  const std::vector<bool>& mask;

  std::string label(std::size_t i) const {
    const std::size_t per_vector = 4 * xs.size();
    return i < per_vector ? "form " + std::to_string(i % 4) + " vector " +
                                std::to_string(i / 4)
                          : "block lane " + std::to_string(i - per_vector);
  }

  std::vector<SparseVec<value_t>> run(ThreadPool& pool, int reps) const {
    SpmspvWorkspace<value_t> ws;
    SpmspvWorkspace<value_t> block_ws;
    SemiringOperator<PlusTimes<value_t>> sop(a, 16, 2, &pool);
    std::vector<TileVector<value_t>> xts;
    for (const SparseVec<value_t>& x : xs) {
      xts.push_back(TileVector<value_t>::from_sparse(x, 16));
    }
    const TileVectorBlock<value_t> xb =
        TileVectorBlock<value_t>::from_tiled(xts, &pool);
    std::vector<SparseVec<value_t>> first;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<SparseVec<value_t>> out;
      for (std::size_t v = 0; v < xs.size(); ++v) {
        out.push_back(tile_spmspv(tiled, xts[v], ws, &pool));
        out.push_back(tile_spmspv_csc(tiled_t, xts[v], ws, &pool));
        out.push_back(
            tile_spmspv_masked(tiled, xts[v], mask, true, ws, &pool));
        out.push_back(sop.multiply(xs[v]));
      }
      for (SparseVec<value_t>& y : tile_spmspm(tiled, xb, block_ws, &pool)) {
        out.push_back(std::move(y));
      }
      if (rep == 0) {
        first = std::move(out);
        continue;
      }
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(out[i], first[i]))
            << "repeat " << rep << " differs, " << label(i);
      }
    }
    return first;
  }
};

// The apps on the block engine: betweenness (float path counts) and the
// tiled multi-source BFS, `reps` times over on one pool.
struct AppRunner {
  const Csr<value_t>& a;
  const std::vector<index_t>& sources;

  std::pair<std::vector<double>, MsBfsResult> run(ThreadPool& pool,
                                                  int reps) const {
    std::pair<std::vector<double>, MsBfsResult> first;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<double> bc =
          betweenness_centrality(a, sources, false, {}, &pool);
      MsBfsResult bfs = ms_bfs_tiled(a, sources, {}, &pool);
      if (rep == 0) {
        first = {std::move(bc), std::move(bfs)};
        continue;
      }
      EXPECT_TRUE(bitwise_equal(bc, first.first))
          << "repeat " << rep << " differs, betweenness";
      EXPECT_EQ(bfs.levels, first.second.levels)
          << "repeat " << rep << " differs, ms_bfs_tiled";
    }
    return first;
  }
};

// Every floating-point sum has one order: the CSR, CSC, masked, semiring
// and block forms, betweenness and the tiled multi-source BFS give bitwise
// the 1-thread result on pools of 2, 4 and 8, on a 2-shard pool and on
// every repeat through one workspace, and the forms give it again on the
// same matrix mapped from a tile file. web-small has extracted entries, so
// every side pass runs, and hub rows collect products from many x tiles.
TEST(CscMerge, EveryFormIsBitwiseDeterministic) {
  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("web-small"));
  const TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  const TileMatrix<value_t> tiled_t =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  ASSERT_GT(tiled.extracted.nnz(), 0);
  ASSERT_GT(tiled_t.extracted.nnz(), 0);
  std::vector<SparseVec<value_t>> xs;
  for (const double sparsity : {1e-1, 1e-2, 1e-3}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      xs.push_back(gen_sparse_vector(a.cols, sparsity, 900 + seed));
    }
  }
  std::vector<bool> mask(a.rows);
  for (index_t r = 0; r < a.rows; ++r) mask[r] = r % 3 == 0;
  const FormRunner runner{a, tiled, tiled_t, xs, mask};
  std::vector<index_t> sources;
  for (index_t s = 0; s < 12; ++s) sources.push_back(s * (a.rows / 12));
  const AppRunner apps{a, sources};

  ThreadPool serial(1);
  const std::vector<SparseVec<value_t>> expect = runner.run(serial, 1);
  for (std::size_t v = 0; v < xs.size(); ++v) {
    const SparseVec<value_t> ref = spmspv_rowwise_reference(a, xs[v]);
    ASSERT_TRUE(approx_equal(expect[4 * v], ref)) << "vector " << v;
    ASSERT_TRUE(approx_equal(expect[4 * xs.size() + v], ref))
        << "block lane " << v;
  }
  const auto expect_apps = apps.run(serial, 1);
  const auto check_forms = [&](ThreadPool& pool, int reps,
                               const std::string& what,
                               const FormRunner& forms) {
    const std::vector<SparseVec<value_t>> got = forms.run(pool, reps);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(got[i], expect[i]))
          << what << ": " << forms.label(i);
    }
  };
  const auto check = [&](ThreadPool& pool, int reps, const std::string& what) {
    check_forms(pool, reps, what, runner);
    const auto got_apps = apps.run(pool, reps);
    EXPECT_TRUE(bitwise_equal(got_apps.first, expect_apps.first))
        << what << ": betweenness";
    EXPECT_EQ(got_apps.second.levels, expect_apps.second.levels)
        << what << ": ms_bfs_tiled";
  };
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    check(pool, 1, std::to_string(threads) + " threads");
  }
  ThreadPool sharded(4);
  sharded.configure_shards(2, false);
  check(sharded, 1, "4 threads, 2 shards");
  ThreadPool pool(4);
  check(pool, 8, "4 threads, 8 repeats");

  // Owned vs mapped: the same matrices as views into a tile file.
  const std::string path = ::testing::TempDir() + "csc_merge_web_small.ttlf";
  write_tile_matrix_file_v2(path, tiled, &tiled_t);
  const MappedTileMatrix mapped = map_tile_matrix_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(mapped.has_transpose);
  const FormRunner mapped_runner{a, mapped.tiled, mapped.tiled_t, xs, mask};
  check_forms(pool, 1, "mapped, 4 threads", mapped_runner);
}

// Tall-thin transpose: many active tile rows of Aᵀ all scatter into the
// same few output rows — the worst case for the old atomic scheme and the
// maximum-contention case for the owner apply. x's work (1,024 x tiles of
// weight ~17) is cut into the full kMaxRanges ranges on every pool of 2 or
// more (a 1-slot pool takes one range), and the 256 output rows are 4
// bitmap words, so every such pool runs one owner per slot up to 4. The
// CSR form's side pass over the same 1,024 x tiles cuts the same way.
TEST(CscMerge, ManyColumnsFewOutputTilesAllPoolSizes) {
  const index_t rows = 256;     // 16 output tiles, 4 bitmap words
  const index_t cols = 16384;   // 1024 active tile rows of At
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(rows, cols, 0.05, 42));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  const TileMatrix<value_t> t = TileMatrix<value_t>::from_csr(a, 16, 2);
  ASSERT_GT(t.extracted.nnz(), 0);
  const SparseVec<value_t> x = gen_sparse_vector(cols, 0.8, 7);
  const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  const SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    SpmspvWorkspace<value_t> ws;
    for (int rep = 0; rep < 8; ++rep) {
      const SparseVec<value_t> y = tile_spmspv_csc(at, xt, ws, &pool);
      ASSERT_TRUE(approx_equal(y, expect))
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(static_cast<index_t>(ws.range_ptr.size()) - 1,
                threads == 1 ? 1 : detail::kMaxRanges);
      ASSERT_EQ(ws.pairs.owners, std::min(threads, 4));
      ASSERT_TRUE(approx_equal(tile_spmspv(t, xt, ws, &pool), expect))
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(static_cast<index_t>(ws.range_ptr.size()) - 1,
                threads == 1 ? 1 : detail::kMaxRanges);
    }
  }
}

// The workspace invariant the kernel relies on: between calls y is
// all-zero, every row-bitmap word is zero and every pair and gather list
// is empty, so a stale value, bit or pair from a racy or skipped reset
// would poison the next multiply. Cycling three vectors on one workspace
// and a 4-thread pool runs both one range on the caller and many ranges
// with several owners, and catches exactly that.
TEST(CscMerge, WorkspaceIsCleanBetweenCalls) {
  const index_t n = 4000;
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(n, n, 0.003, 11));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  ThreadPool pool(4);
  SpmspvWorkspace<value_t> ws;
  bool one_range = false, many_ranges = false;
  for (int rep = 0; rep < 9; ++rep) {
    const double sparsity = rep % 3 == 0 ? 0.5 : (rep % 3 == 1 ? 0.02 : 5e-4);
    const SparseVec<value_t> x = gen_sparse_vector(n, sparsity, 100 + rep);
    const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
    ASSERT_TRUE(
        approx_equal(tile_spmspv_csc(at, xt, ws, &pool),
                     spmspv_rowwise_reference(a, x)))
        << "rep=" << rep;
    const auto ranges = static_cast<int>(ws.range_ptr.size()) - 1;
    one_range |= ranges == 1;
    many_ranges |= ranges > 1 && ws.pairs.owners > 1;
    for (const value_t v : ws.y) ASSERT_EQ(v, 0.0) << "rep=" << rep;
    for (const std::uint64_t word : ws.row_bits) ASSERT_EQ(word, 0u);
    for (const auto& list : ws.pairs.lists) {
      ASSERT_TRUE(list.idx.empty());
      ASSERT_TRUE(list.vals.empty());
    }
    for (const auto& part : ws.gather.parts) {
      ASSERT_TRUE(part.idx.empty());
      ASSERT_TRUE(part.vals.empty());
    }
  }
  EXPECT_TRUE(one_range);
  EXPECT_TRUE(many_ranges);
}

// The emit walks the row bitmap a 64-row word at a time. Here the output
// has 2088 rows (32 full words and a partial 33rd, whose last tile is
// itself partial), and x reaches the last tile on both sides. Every tile
// of A is stored (no extraction), so every active x tile weighs the same,
// 132: x in the last tile alone is one tile and so 1 range, and x in the
// last 128 tiles (16,896) is cut into the full 16 on every pool of 2 or
// more. A 1-slot pool runs either as 1 range. Each must give the
// reference and, on every pool, bitwise the 1-thread result.
TEST(CscMerge, PartialLastBitmapWord) {
  const index_t n = 131 * 16 - 8;
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(n, n, 0.05, 61));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 0);
  ASSERT_EQ(at.tile_cols, 131);
  ASSERT_EQ(at.num_tiles(), 131 * 131);

  SparseVec<value_t> last_tile(n);
  for (index_t i = n - 8; i < n; ++i) last_tile.push(i, 1.0 + i % 3);
  SparseVec<value_t> spread(n);
  for (index_t t = 3; t < 131; ++t) spread.push(t * 16 + t % 8, 0.5 + t % 4);

  for (const auto& [x, ranges] :
       {std::pair{last_tile, 1}, std::pair{spread, 16}}) {
    const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
    const SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);
    ASSERT_FALSE(expect.idx.empty());
    ASSERT_EQ(expect.idx.back() / 16, 130) << "output misses the last tile";
    ThreadPool serial(1);
    SpmspvWorkspace<value_t> ws;
    const SparseVec<value_t> first = tile_spmspv_csc(at, xt, ws, &serial);
    // range_ptr keeps the last multiply's cut.
    ASSERT_EQ(static_cast<int>(ws.range_ptr.size()) - 1, 1);
    ASSERT_TRUE(approx_equal(first, expect)) << ranges << " ranges";
    for (const int threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      EXPECT_TRUE(bitwise_equal(tile_spmspv_csc(at, xt, ws, &pool), first))
          << ranges << " ranges, " << threads << " threads";
      ASSERT_EQ(static_cast<int>(ws.range_ptr.size()) - 1, ranges);
    }
  }
}

// Lists that tasks fill at once must not share a cache line: a push_back
// or clear in one task would otherwise invalidate the line another core is
// writing. After a multi-range, multi-owner CSC multiply and a parallel
// CSR gather, every owner list and every gather part starts on its own
// 64-byte line.
TEST(CscMerge, PerTaskListsOwnTheirCacheLines) {
  const auto check_lines = [](const auto& lists, const char* what) {
    ASSERT_GT(lists.size(), 1u) << what;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      const auto at = reinterpret_cast<std::uintptr_t>(&lists[i]);
      EXPECT_EQ(at % 64, 0u) << what << " " << i;
      if (i > 0) {
        EXPECT_GE(at - reinterpret_cast<std::uintptr_t>(&lists[i - 1]), 64u)
            << what << " " << i;
      }
    }
  };
  const index_t n = 2000;
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(n, n, 0.01, 5));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  const SparseVec<value_t> x = gen_sparse_vector(n, 0.3, 21);
  ThreadPool pool(4);
  SpmspvWorkspace<value_t> ws;
  ASSERT_TRUE(approx_equal(
      tile_spmspv_csc(at, TileVector<value_t>::from_sparse(x, 16), ws, &pool),
      spmspv_rowwise_reference(a, x)));
  ASSERT_GT(ws.pairs.ranges, 1);
  ASSERT_GT(ws.pairs.owners, 1);
  check_lines(ws.pairs.lists, "owner list");
  check_lines(ws.gather.parts, "gather part");

  // The CSR form's gather splits a matrix of 4096 or more tile rows into
  // parts, one per (lane, tile range) task, on a host with more than one
  // hardware thread (detail::gather_ranges).
  if (std::thread::hardware_concurrency() <= 1) return;
  const index_t big = 4096 * 16;
  const Csr<value_t> b =
      Csr<value_t>::from_coo(gen_erdos_renyi(big, big, 2e-5, 6));
  const TileMatrix<value_t> tb = TileMatrix<value_t>::from_csr(b, 16, 2);
  const SparseVec<value_t> xb = gen_sparse_vector(big, 0.05, 22);
  SpmspvWorkspace<value_t> wb;
  ASSERT_TRUE(approx_equal(
      tile_spmspv(tb, TileVector<value_t>::from_sparse(xb, 16), wb, &pool),
      spmspv_rowwise_reference(b, xb)));
  check_lines(wb.gather.parts, "CSR gather part");
  for (const auto& part : wb.gather.parts) {
    EXPECT_TRUE(part.idx.empty());
    EXPECT_TRUE(part.vals.empty());
  }
}

// An output of 0 rows has no bitmap word and so no owner: a 0×m and a 0×0
// matrix multiply to an empty vector through the CSC kernel, through
// SemiringOperator (which always runs it) and through SpmspvOperator's
// kAuto (an empty x has tile density 0, so it picks the CSC form).
TEST(CscMerge, ZeroRowMatrix) {
  for (const index_t m : {40, 0}) {
    const Csr<value_t> a = Csr<value_t>::from_coo(Coo<value_t>(0, m));
    const TileMatrix<value_t> at =
        TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
    SparseVec<value_t> x(m);
    if (m > 0) x.push(m / 2, 2.0);
    const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
    ThreadPool pool(4);
    SpmspvWorkspace<value_t> ws;
    const SparseVec<value_t> empty(m);
    for (const SparseVec<value_t>& y :
         {tile_spmspv_csc(at, xt, ws, &pool),
          SemiringOperator<MinPlus<value_t>>(a, 16, 2, &pool).multiply(x),
          SpmspvOperator<value_t>(a, {}, &pool).multiply(empty)}) {
      EXPECT_EQ(y.n, 0) << "m=" << m;
      EXPECT_EQ(y.nnz(), 0) << "m=" << m;
    }
  }
}

// A multiply below kMinSplitWeight is one range, and its apply has one
// owner, so on a 4-thread pool it runs on the caller and wakes no worker.
// x spans two tiles, so without the threshold the cut would give each its
// own range (and two owners); their total weight (119) is computed and
// held below the threshold.
TEST(CscMerge, OneRangeMultiplyWakesNoWorker) {
#ifdef TILESPMSPV_NO_COUNTERS
  GTEST_SKIP() << "counters compiled out";
#else
  const index_t n = 2000;
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(n, n, 0.01, 31));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  SparseVec<value_t> x(n);
  for (const index_t i : {289, 295, 300, 301, 1203}) x.push(i, 0.25 + i % 5);
  const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, 16);
  ThreadPool pool(4);
  SpmspvWorkspace<value_t> ws;
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const SparseVec<value_t> y = tile_spmspv_csc(at, xt, ws, &pool);
  const obs::CounterSnapshot d = obs::counters_snapshot() - before;
  ASSERT_GE(ws.active.size(), 2u);
  offset_t weight = 0;
  for (const index_t s : ws.active) {
    weight += 1 + (at.tile_row_ptr[s + 1] - at.tile_row_ptr[s]);
  }
  ASSERT_LT(weight, detail::kMinSplitWeight);
  ASSERT_EQ(static_cast<int>(ws.range_ptr.size()) - 1, 1);
  EXPECT_EQ(d[obs::Counter::kPoolWakes], 0u);
  EXPECT_GT(d[obs::Counter::kPayloadMacs] + d[obs::Counter::kSideMacs], 0u);
  EXPECT_TRUE(approx_equal(y, spmspv_rowwise_reference(a, x)));
#endif
}

// Concurrent multiplies from two submitting threads, each with its own
// pool and workspace (the pool is single-submitter by design): the
// thread_local slot bookkeeping and the pair lists of the two
// calls must stay fully independent — TSan flags any cross-talk. Each x
// (125 x tiles of weight ~115) is cut into more than 4 ranges and has 4
// owners, so both pools run every phase on all their slots.
TEST(CscMerge, ConcurrentCallsOnSeparatePoolsStayIndependent) {
  const index_t n = 2000;
  const Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(n, n, 0.01, 5));
  const TileMatrix<value_t> at =
      TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  const SparseVec<value_t> x1 = gen_sparse_vector(n, 0.3, 21);
  const SparseVec<value_t> x2 = gen_sparse_vector(n, 0.3, 22);
  const TileVector<value_t> xt1 = TileVector<value_t>::from_sparse(x1, 16);
  const TileVector<value_t> xt2 = TileVector<value_t>::from_sparse(x2, 16);
  const SparseVec<value_t> e1 = spmspv_rowwise_reference(a, x1);
  const SparseVec<value_t> e2 = spmspv_rowwise_reference(a, x2);

  ThreadPool pool_a(4);
  ThreadPool pool_b(4);
  for (int rep = 0; rep < 4; ++rep) {
    SparseVec<value_t> y1, y2;
    SpmspvWorkspace<value_t> ws1, ws2;
    std::thread t1([&] { y1 = tile_spmspv_csc(at, xt1, ws1, &pool_a); });
    std::thread t2([&] { y2 = tile_spmspv_csc(at, xt2, ws2, &pool_b); });
    t1.join();
    t2.join();
    ASSERT_TRUE(approx_equal(y1, e1)) << "rep=" << rep;
    ASSERT_TRUE(approx_equal(y2, e2)) << "rep=" << rep;
    for (const SpmspvWorkspace<value_t>* ws : {&ws1, &ws2}) {
      ASSERT_GT(static_cast<index_t>(ws->range_ptr.size()) - 1, 4);
      ASSERT_EQ(ws->pairs.owners, 4);
    }
  }
}

}  // namespace
}  // namespace tilespmspv
