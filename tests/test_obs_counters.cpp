// Tests for the runtime counter layer: thread-local blocks must merge to
// exact totals under concurrent increments (both pool workers and raw
// std::threads), snapshots must be subtractable to isolate a region, and
// reset must zero every thread's block.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace tilespmspv {
namespace {

using obs::Counter;
using obs::CounterSnapshot;

#ifndef TILESPMSPV_NO_COUNTERS

TEST(ObsCounters, SingleThreadDelta) {
  const CounterSnapshot before = obs::counters_snapshot();
  obs::counter_add(Counter::kTilesScanned, 7);
  obs::counter_add(Counter::kTilesScanned, 3);
  obs::counter_add(Counter::kPayloadMacs, 41);
  const CounterSnapshot d = obs::counters_snapshot() - before;
  EXPECT_EQ(d[Counter::kTilesScanned], 10u);
  EXPECT_EQ(d[Counter::kPayloadMacs], 41u);
  EXPECT_EQ(d[Counter::kSideMacs], 0u);
}

TEST(ObsCounters, MergesAcrossPoolWorkers) {
  ThreadPool pool(4);
  const CounterSnapshot before = obs::counters_snapshot();
  constexpr index_t kN = 100000;
  parallel_for(
      kN, [](index_t) { obs::counter_add(Counter::kGatherSlots, 1); }, &pool,
      /*chunk=*/64);
  const CounterSnapshot d = obs::counters_snapshot() - before;
  EXPECT_EQ(d[Counter::kGatherSlots], static_cast<std::uint64_t>(kN));
  // The loop itself is counted too (at least this one; other tests may
  // run concurrently in theory, so >=).
  EXPECT_GE(d[Counter::kPoolLoops], 1u);
}

TEST(ObsCounters, PoolWakesCountOnlyPublishedDispatches) {
  ThreadPool pool(4);
  const CounterSnapshot before = obs::counters_snapshot();
  pool.parallel_ranges(8, /*chunk=*/8, [](index_t, index_t) {});  // serial
  pool.parallel_ranges(64, /*chunk=*/4, [](index_t, index_t) {});
  pool.parallel_ranges(64, /*chunk=*/4, [](index_t, index_t) {});
  const CounterSnapshot d = obs::counters_snapshot() - before;
  EXPECT_EQ(d[Counter::kPoolLoops], 3u);
  EXPECT_EQ(d[Counter::kPoolWakes], 2u);
  EXPECT_EQ(d[Counter::kPoolChunks], 2u * 16u);  // the serial path claims none
}

TEST(ObsCounters, MergesAcrossRawThreads) {
  const CounterSnapshot before = obs::counters_snapshot();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 25000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        obs::counter_add(Counter::kSideMacs, 1);
      }
    });
  }
  for (auto& t : ts) t.join();
  // All worker threads have exited; their blocks must still contribute.
  const CounterSnapshot d = obs::counters_snapshot() - before;
  EXPECT_EQ(d[Counter::kSideMacs], kThreads * kPerThread);
}

TEST(ObsCounters, ResetZeroesEveryBlock) {
  std::thread([] { obs::counter_add(Counter::kTilesComputed, 99); }).join();
  obs::counter_add(Counter::kTilesComputed, 1);
  obs::counters_reset();
  const CounterSnapshot snap = obs::counters_snapshot();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(snap.v[i], 0u) << obs::counter_name(static_cast<Counter>(i));
  }
}

TEST(ObsCounters, NamesAreStableAndUnique) {
  std::vector<std::string> names;
  for (int i = 0; i < obs::kNumCounters; ++i) {
    names.emplace_back(obs::counter_name(static_cast<Counter>(i)));
  }
  EXPECT_EQ(names.front(), "tiles_scanned");
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

#else  // TILESPMSPV_NO_COUNTERS

TEST(ObsCounters, CompiledOutIsInertAndZero) {
  obs::counter_add(Counter::kTilesScanned, 7);
  const CounterSnapshot snap = obs::counters_snapshot();
  EXPECT_EQ(snap[Counter::kTilesScanned], 0u);
  EXPECT_FALSE(obs::counters_enabled());
  obs::counters_reset();  // must be callable
}

#endif  // TILESPMSPV_NO_COUNTERS

}  // namespace
}  // namespace tilespmspv
