// Batch admission for the serving daemon: queries against the same
// resident matrix accumulate in per-matrix queues and flush into ONE
// block-engine call — tile_spmspm for SpMSpV batches, ms_bfs_tiled_on for
// BFS batches — when k queries have accumulated or the oldest query's
// deadline expires. This is how the daemon converts the block-of-k
// amortization (ROADMAP item 2, core/tile_spmspm.hpp) into serving
// throughput: concurrent clients share tile metadata walks without
// coordinating with each other.
//
// Each queue pins the MatrixSnapshot captured when its first query was
// admitted, so a snapshot swap (matrix reload) never mixes operands
// inside one flush: queries admitted before the swap run on the old
// snapshot, queries after it start a fresh queue on the new one.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/tile_spmspm.hpp"
#include "formats/sparse_vector.hpp"
#include "serve/matrix_store.hpp"
#include "util/types.hpp"

namespace tilespmspv {
class ThreadPool;
}

namespace tilespmspv::serve {

struct BatchConfig {
  int max_k = 64;           // flush at k queries (clamped to 64 lanes)
  double deadline_ms = 2.0; // flush the oldest query after this long
};

/// Per-matrix batch queues + one flusher thread. submit_* never blocks on
/// kernel work; the returned future resolves when the batch containing
/// the query flushes. Thread-safe.
class Batcher {
 public:
  Batcher(const BatchConfig& cfg, ThreadPool* pool);
  ~Batcher();  // flushes everything still queued, then joins

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// y = A·x on the snapshot's tiled form. `x.n` must equal snap->cols
  /// (checked; a mismatch resolves the future with an exception).
  std::future<SparseVec<value_t>> submit_spmspv(SnapshotPtr snap,
                                                SparseVec<value_t> x);

  /// Single-source BFS levels from `source` (the snapshot must be square;
  /// levels[v] = -1 unreachable). Batched bit-parallel with other sources
  /// admitted in the same window.
  std::future<std::vector<index_t>> submit_bfs(SnapshotPtr snap,
                                               index_t source);

  struct Stats {
    std::uint64_t spmspv_queries = 0;
    std::uint64_t bfs_queries = 0;
    std::uint64_t flushes = 0;          // block-engine invocations
    std::uint64_t batched_flushes = 0;  // flushes that carried k > 1
    std::uint64_t max_flush_k = 0;      // largest k in any single flush
    std::uint64_t errors = 0;           // queries resolved with an exception
  };
  Stats stats() const;

 private:
  struct SpmspvQueue {
    SnapshotPtr snap;
    std::vector<SparseVec<value_t>> xs;
    std::vector<std::promise<SparseVec<value_t>>> promises;
    std::chrono::steady_clock::time_point oldest;
  };
  struct BfsQueue {
    SnapshotPtr snap;
    std::vector<index_t> sources;
    std::vector<std::promise<std::vector<index_t>>> promises;
    std::chrono::steady_clock::time_point oldest;
  };

  void flusher_loop();
  void flush_spmspv(SpmspvQueue q);
  void flush_bfs(BfsQueue q);

  BatchConfig cfg_;
  ThreadPool* pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Keyed by snapshot identity (key + epoch), so a reload starts a fresh
  // queue instead of appending to one pinned on the old snapshot.
  std::vector<std::pair<std::string, SpmspvQueue>> spmspv_queues_;
  std::vector<std::pair<std::string, BfsQueue>> bfs_queues_;
  bool stop_ = false;
  std::uint64_t spmspv_queries_ = 0, bfs_queries_ = 0;
  std::uint64_t flushes_ = 0, batched_flushes_ = 0, max_flush_k_ = 0;
  std::uint64_t errors_ = 0;

  // Scratch of every SpMSpV flush (no rows × k block per flush). Only the
  // flusher thread, which alone runs flush_spmspv, touches it: no lock.
  SpmspvWorkspace<value_t> spmspm_ws_;

  std::thread flusher_;  // last member: starts in ctor, joins in dtor
};

}  // namespace tilespmspv::serve
