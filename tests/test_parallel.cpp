// Tests for the thread-pool substrate: loop coverage, reductions, atomic
// helpers, reuse across many dispatches (epoch handling must be
// airtight), and caller-led teams (a TileBFS traversal is one team with
// two phases per level). The dispatch-protocol and team tests run under
// TSan in CI, which is what checks the barriers' ordering claims.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace tilespmspv {
namespace {

class ThreadPoolSizes : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolSizes, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  const index_t n = 10007;  // prime, not a chunk multiple
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](index_t i) { hits[i].fetch_add(1); }, &pool);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ThreadPoolSizes, ParallelForRangesPartitions) {
  ThreadPool pool(GetParam());
  const index_t n = 5000;
  std::atomic<index_t> total{0};
  parallel_for_ranges(
      n, [&](index_t b, index_t e) { total.fetch_add(e - b); }, &pool,
      /*chunk=*/37);
  EXPECT_EQ(total.load(), n);
}

TEST_P(ThreadPoolSizes, ParallelReduceSum) {
  ThreadPool pool(GetParam());
  const index_t n = 12345;
  const long long got = parallel_reduce<long long>(
      n, 0LL, [](index_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; }, &pool);
  EXPECT_EQ(got, static_cast<long long>(n) * (n - 1) / 2);
}

TEST_P(ThreadPoolSizes, ManySequentialDispatches) {
  ThreadPool pool(GetParam());
  // The BFS drivers re-enter the pool hundreds of times; make sure epochs
  // never deadlock or drop work.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    parallel_for(100, [&](index_t) { count.fetch_add(1); }, &pool,
                 /*chunk=*/7);
    ASSERT_EQ(count.load(), 100);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolSizes,
                         ::testing::Values(1, 2, 4, 8));

// Sleeping this long guarantees the workers exhausted their spin budget
// and parked (barring a host so loaded that they never got to run).
constexpr auto kPastSpinBudget = ThreadPool::kSpinBudget * 20;

class DispatchProtocol : public ::testing::TestWithParam<int> {};

TEST_P(DispatchProtocol, BackToBackTinyDispatchesRunEachIndexOnce) {
  // Tiny loops back to back keep the workers spinning, so each dispatch
  // races the previous close against late joiners. Plain increments: an
  // index run twice, or run by a worker after the caller returned, shows
  // up as a wrong count (and as a race under TSan), and reading them on
  // the caller checks that the barrier publishes non-atomic body writes.
  ThreadPool pool(GetParam());
  constexpr index_t kN = 16;
  constexpr int kDispatches = 200000;
  std::vector<int> runs(kN, 0);
  for (int d = 0; d < kDispatches; ++d) {
    pool.parallel_ranges(kN, /*chunk=*/2, [&](index_t b, index_t e) {
      for (index_t i = b; i < e; ++i) ++runs[i];
    });
    for (index_t i = 0; i < kN; ++i) {
      ASSERT_EQ(runs[i], d + 1) << "dispatch " << d << " index " << i;
    }
  }
}

TEST_P(DispatchProtocol, DispatchAfterWorkersParkWakesThemAndCoversAll) {
  // The caller drains alone when no worker wakes, so coverage cannot show
  // a lost wake-up. The caller's chunks therefore also wait until some
  // worker has run a chunk, with a timeout far above any wake latency.
  ThreadPool pool(GetParam());
  constexpr index_t kN = 4096;
  std::vector<int> hits(kN, 0);
  for (int round = 1; round <= 5; ++round) {
    std::this_thread::sleep_for(kPastSpinBudget);
    std::atomic<bool> worker_ran{false};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    pool.parallel_ranges(kN, /*chunk=*/16, [&](index_t b, index_t e) {
      if (ThreadPool::current_slot() != 0) {
        worker_ran.store(true);
      } else {
        while (!worker_ran.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      for (index_t i = b; i < e; ++i) ++hits[i];
    });
    EXPECT_TRUE(worker_ran.load()) << "round " << round;
    for (index_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i], round) << "round " << round << " index " << i;
    }
  }
}

TEST_P(DispatchProtocol, DestroyWhileWorkersSpin) {
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(GetParam());
      parallel_for(256, [&](index_t) { count.fetch_add(1); }, &pool, 4);
    }  // workers are still inside their spin budget here
    ASSERT_EQ(count.load(), 256);
  }
}

TEST_P(DispatchProtocol, DestroyWhileWorkersParked) {
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(GetParam());
      parallel_for(256, [&](index_t) { count.fetch_add(1); }, &pool, 4);
      std::this_thread::sleep_for(kPastSpinBudget);
    }
    ASSERT_EQ(count.load(), 256);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, DispatchProtocol,
                         ::testing::Values(2, 4, 8));

TEST(ThreadPool, CallerExceptionWaitsForJoinedWorkers) {
  // The task lives in the caller's frame, so a body that throws on the
  // caller must not unwind it while workers still drain the loop. Workers
  // hold each chunk until the caller has thrown, so joined workers are
  // mid-loop when it unwinds; with more chunks than workers the caller
  // always claims one. Afterwards the pool must still work.
  ThreadPool pool(4);
  constexpr index_t kN = 256;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<bool> thrown{false};
    EXPECT_THROW(pool.parallel_ranges(kN, /*chunk=*/1,
                                      [&](index_t b, index_t) {
                                        if (ThreadPool::current_slot() == 0) {
                                          thrown.store(true);
                                          throw std::runtime_error("body");
                                        }
                                        while (!thrown.load()) {
                                          std::this_thread::yield();
                                        }
                                        hits[b].fetch_add(1);
                                      }),
                 std::runtime_error);
    for (index_t i = 0; i < kN; ++i) ASSERT_LE(hits[i].load(), 1);
  }
  std::atomic<int> count{0};
  parallel_for(kN, [&](index_t) { count.fetch_add(1); }, &pool, 8);
  EXPECT_EQ(count.load(), kN);
}

// Leads `phases` phases on `pool` and checks that every share ran exactly
// once per phase. The counts are plain ints: each share writes its own,
// and the leader reads them after the phase, so a share run twice, or run
// by a member after its phase ended, shows up as a wrong count (and as a
// race under TSan).
void expect_each_share_once(ThreadPool& pool, int phases) {
  pool.lead_team([&](ThreadPool::Team& team) {
    ASSERT_EQ(team.size(), static_cast<int>(pool.size()));
    std::vector<int> runs(static_cast<std::size_t>(team.size()), 0);
    for (int p = 1; p <= phases; ++p) {
      team.run([&](int i) { ++runs[static_cast<std::size_t>(i)]; });
      for (int i = 0; i < team.size(); ++i) {
        ASSERT_EQ(runs[static_cast<std::size_t>(i)], p)
            << "phase " << p << " share " << i;
      }
    }
  });
}

class TeamSizes : public ::testing::TestWithParam<int> {};

TEST_P(TeamSizes, EachShareRunsOncePerPhase) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  expect_each_share_once(pool, 20000);
  // Members that spun out and parked between teams come back.
  std::this_thread::sleep_for(kPastSpinBudget);
  expect_each_share_once(pool, 100);
}

TEST_P(TeamSizes, PhasesSeparatedByParkingStillCoverEveryShare) {
  // Gaps past the spin budget make members leave the team between
  // phases; each phase must call them back or run without them.
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  pool.lead_team([&](ThreadPool::Team& team) {
    std::vector<int> runs(static_cast<std::size_t>(team.size()), 0);
    for (int p = 1; p <= 5; ++p) {
      std::this_thread::sleep_for(kPastSpinBudget);
      team.run([&](int i) { ++runs[static_cast<std::size_t>(i)]; });
      for (int i = 0; i < team.size(); ++i) {
        ASSERT_EQ(runs[static_cast<std::size_t>(i)], p) << "share " << i;
      }
    }
  });
}

TEST_P(TeamSizes, RangePhasesCoverEveryUnitOnce) {
  // Uneven home ranges (one empty, one much longer): each unit runs once,
  // on a share that keeps its outputs private.
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  const int shares = static_cast<int>(pool.size());
  std::vector<index_t> bounds(static_cast<std::size_t>(shares) + 1, 0);
  for (int i = 1; i <= shares; ++i) {
    bounds[static_cast<std::size_t>(i)] =
        bounds[static_cast<std::size_t>(i) - 1] + (i == 1 ? 0 : 97 * i);
  }
  const index_t n = bounds.back();
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<index_t>> ran_by(static_cast<std::size_t>(shares));
  pool.lead_team([&](ThreadPool::Team& team) {
    for (int p = 1; p <= 50; ++p) {
      team.run_ranges(bounds, index_t{5}, [&](int i, index_t b, index_t e) {
        for (index_t u = b; u < e; ++u) {
          ++hits[static_cast<std::size_t>(u)];
          ran_by[static_cast<std::size_t>(i)].push_back(u);
        }
      });
      for (index_t u = 0; u < n; ++u) {
        ASSERT_EQ(hits[static_cast<std::size_t>(u)], p) << "unit " << u;
      }
    }
  });
  std::size_t total = 0;
  for (const auto& r : ran_by) total += r.size();
  EXPECT_EQ(total, static_cast<std::size_t>(n) * 50);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, TeamSizes, ::testing::Values(1, 2, 4, 8));

TEST(ThreadPoolTeam, WorkerThatNeverJoinsHoldsNoPhaseUp) {
  // Workers stuck inside another caller's loop never join the team; its
  // phases must still finish, with the leader taking their shares.
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<int> stuck{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::thread blocker([&] {
    pool.parallel_ranges(64, /*chunk=*/1, [&](index_t, index_t) {
      if (ThreadPool::current_slot() != 0) {
        stuck.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      } else {
        while (stuck.load() == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
    });
  });
  while (stuck.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GT(stuck.load(), 0) << "no worker joined the blocking loop";
  expect_each_share_once(pool, 2000);
  release.store(true);
  blocker.join();
}

TEST(ThreadPoolTeam, TwoLeadersOnOnePool) {
  ThreadPool pool(4);
  std::thread a([&] { expect_each_share_once(pool, 5000); });
  std::thread b([&] { expect_each_share_once(pool, 5000); });
  a.join();
  b.join();
  expect_each_share_once(pool, 100);
}

TEST(ThreadPoolTeam, ThrowingShareReleasesTeamAndRethrowsOnLeader) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 50; ++rep) {
    int phases_after = 0;
    EXPECT_THROW(pool.lead_team([&](ThreadPool::Team& team) {
      team.run([](int) {});
      // The last share is some member's home share, so the exception
      // usually crosses threads.
      team.run([&](int i) {
        if (i == team.size() - 1) throw std::runtime_error("share");
      });
      ++phases_after;
    }),
                 std::runtime_error);
    EXPECT_EQ(phases_after, 0);
  }
  // The pool still runs teams and loops.
  expect_each_share_once(pool, 100);
  std::atomic<int> count{0};
  parallel_for(256, [&](index_t) { count.fetch_add(1); }, &pool, 8);
  EXPECT_EQ(count.load(), 256);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(4);
  bool ran = false;
  parallel_for(0, [&](index_t) { ran = true; }, &pool);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SizeReportsCallerPlusWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SharedPoolWorks) {
  std::atomic<int> count{0};
  parallel_for(50, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(Atomics, AtomicOrAccumulates) {
  std::uint32_t w = 0;
  atomic_or(&w, 0x1u);
  atomic_or(&w, 0x80000000u);
  EXPECT_EQ(w, 0x80000001u);
}

TEST(Atomics, AtomicOrConcurrent) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> words(64, 0);
  parallel_for(
      64 * 64,
      [&](index_t i) {
        atomic_or(&words[i / 64], std::uint64_t{1} << (i % 64));
      },
      &pool, /*chunk=*/3);
  for (const auto w : words) EXPECT_EQ(w, ~std::uint64_t{0});
}

TEST(Atomics, AtomicLoadSeesStores) {
  std::uint32_t w = 0;
  atomic_or(&w, 42u);
  EXPECT_EQ(atomic_load(&w), 42u);
}

TEST(ThreadPool, TwoPoolsOperateIndependently) {
  ThreadPool a(3), b(2);
  std::atomic<int> ca{0}, cb{0};
  parallel_for(1000, [&](index_t) { ca.fetch_add(1); }, &a, 13);
  parallel_for(500, [&](index_t) { cb.fetch_add(1); }, &b, 7);
  parallel_for(1000, [&](index_t) { ca.fetch_add(1); }, &a, 13);
  EXPECT_EQ(ca.load(), 2000);
  EXPECT_EQ(cb.load(), 500);
}

TEST(ThreadPool, OffPoolThreadSeesSentinelSlot) {
  // Threads that are not inside any dispatch carry the -1 sentinel;
  // scratch_slot() folds it into the always-present caller bucket so
  // per-slot workspaces stay in bounds when kernels run off-pool (the
  // serving daemon's request threads are exactly this case).
  int slot = -2, scratch = -2;
  std::thread t([&] {
    slot = ThreadPool::current_slot();
    scratch = ThreadPool::scratch_slot();
  });
  t.join();
  EXPECT_EQ(slot, -1);
  EXPECT_EQ(scratch, 0);
}

TEST(ThreadPool, SlotsAreDenseWithinDispatch) {
  ThreadPool pool(4);
  std::atomic<int> out_of_range{0};
  parallel_for(
      4096,
      [&](index_t) {
        const int s = ThreadPool::current_slot();
        if (s < 0 || s >= static_cast<int>(pool.size())) {
          out_of_range.fetch_add(1);
        }
      },
      &pool, /*chunk=*/1);
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(ThreadPool, NestedDispatchOntoSmallerPoolRebindsSlot) {
  // Regression: a worker of a 4-thread pool used to keep its own slot
  // (1..3) while executing a body dispatched through a 1-thread pool,
  // indexing that pool's per-slot buffers out of bounds. The dispatch must
  // bind the thread to the small pool's caller slot and restore the worker
  // slot afterwards.
  ThreadPool big(4);
  ThreadPool small(1);
  std::atomic<int> bad_inner{0}, bad_restore{0};
  parallel_for(
      64,
      [&](index_t) {
        const int before = ThreadPool::current_slot();
        small.parallel_ranges(8, /*chunk=*/64, [&](index_t, index_t) {
          const int s = ThreadPool::current_slot();
          if (s < 0 || s >= static_cast<int>(small.size())) {
            bad_inner.fetch_add(1);
          }
        });
        if (ThreadPool::current_slot() != before) bad_restore.fetch_add(1);
      },
      &big, /*chunk=*/1);
  EXPECT_EQ(bad_inner.load(), 0);
  EXPECT_EQ(bad_restore.load(), 0);
}

TEST(ThreadPool, LargeChunkRunsSerially) {
  ThreadPool pool(4);
  // n <= chunk takes the serial fast path; verify order is sequential.
  std::vector<index_t> order;
  parallel_for_ranges(
      10, [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) order.push_back(i);
      },
      &pool, /*chunk=*/100);
  std::vector<index_t> expect(10);
  std::iota(expect.begin(), expect.end(), index_t{0});
  EXPECT_EQ(order, expect);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait ~2ms of wall clock.
  volatile double sink = 0.0;
  while (t.elapsed_ms() < 2.0) sink = sink + 1.0;
  EXPECT_GE(t.elapsed_ms(), 2.0);
  EXPECT_GT(t.elapsed_s(), 0.0);
  t.reset();
  EXPECT_LT(t.elapsed_ms(), 2.0);
  (void)sink;
}

TEST(Timer, TimeBestRunsWarmupPlusIters) {
  int calls = 0;
  const double best = time_best_ms([&] { ++calls; }, 5);
  EXPECT_EQ(calls, 6);  // 1 warm-up + 5 timed
  EXPECT_GE(best, 0.0);
}

}  // namespace
}  // namespace tilespmspv
