#include "obs/counters.hpp"

#include <mutex>
#include <vector>

namespace tilespmspv::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kTilesScanned:
      return "tiles_scanned";
    case Counter::kTilesSkippedEmpty:
      return "tiles_skipped_empty";
    case Counter::kTilesComputed:
      return "tiles_computed";
    case Counter::kPayloadMacs:
      return "payload_macs";
    case Counter::kSideMacs:
      return "side_macs";
    case Counter::kGatherSlots:
      return "gather_slots";
    case Counter::kBatchTilesShared:
      return "batch_tiles_shared";
    case Counter::kBatchLaneMacs:
      return "batch_lane_macs";
    case Counter::kBfsIterPushCsc:
      return "bfs_iter_push_csc";
    case Counter::kBfsIterPushCsr:
      return "bfs_iter_push_csr";
    case Counter::kBfsIterPullCsc:
      return "bfs_iter_pull_csc";
    case Counter::kBfsSideEdges:
      return "bfs_side_edges";
    case Counter::kBfsFrontierWords:
      return "bfs_frontier_words";
    case Counter::kBfsProducedWords:
      return "bfs_produced_words";
    case Counter::kBfsTilesVisited:
      return "bfs_tiles_visited";
    case Counter::kPoolLoops:
      return "pool_loops";
    case Counter::kPoolChunks:
      return "pool_chunks";
    case Counter::kPoolWakes:
      return "pool_wakes";
    case Counter::kHashBytes:
      return "hash_bytes";
    case Counter::kCount:
      break;
  }
  return "?";
}

#ifndef TILESPMSPV_NO_COUNTERS

namespace {

struct Registry {
  std::mutex mu;
  std::vector<detail::CounterBlock*> blocks;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives thread exit order
  return *r;
}

}  // namespace

namespace detail {

CounterBlock& thread_block() {
  thread_local CounterBlock* block = [] {
    auto* b = new CounterBlock();  // leaked: snapshots read blocks of
                                   // threads that have already exited
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.blocks.push_back(b);
    return b;
  }();
  return *block;
}

}  // namespace detail

CounterSnapshot counters_snapshot() {
  CounterSnapshot s;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const detail::CounterBlock* b : r.blocks) {
    for (int i = 0; i < kNumCounters; ++i) {
      s.v[i] += b->v[i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

void counters_reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (detail::CounterBlock* b : r.blocks) {
    for (int i = 0; i < kNumCounters; ++i) {
      b->v[i].store(0, std::memory_order_relaxed);
    }
  }
}

#endif  // TILESPMSPV_NO_COUNTERS

}  // namespace tilespmspv::obs
