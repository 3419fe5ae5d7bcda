// A small work-sharing thread pool. This is the repo's stand-in for the GPU
// "device": the paper launches CUDA warps over tile rows / frontier chunks;
// here the same work units are dispatched as blocked index ranges onto pool
// workers. The pool size is an explicit parameter everywhere so tests can
// exercise the concurrent paths even on a single-core host.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace tilespmspv {

/// Fixed-size pool executing blocked parallel-for loops.
///
/// Work distribution is dynamic: the loop range is cut into chunks and
/// workers claim chunks from a shared atomic counter, which mirrors how a
/// GPU scheduler assigns tile rows to warps and gives load balance on
/// skewed sparsity patterns (long tile rows).
///
/// `parallel_ranges` is a template over the callable: the body is invoked
/// through a captured function pointer + context, so dispatching a loop
/// allocates nothing (the old std::function path heap-allocated a closure
/// per call, measurable on the fine-grained SpMSpV phase loops).
///
/// Dispatch protocol (the analog of a kernel launch, so it must cost about
/// a microsecond, not the tens a mutex round trip costs):
///   - publish: the caller stores the task pointer and bumps an atomic
///     epoch; it touches the mutex only when a worker is parked;
///   - spin, then park: after each task a worker spins on the epoch for
///     kSpinBudget, then parks on a condition variable;
///   - join: a worker that sees a new epoch increments an in-flight count,
///     then re-checks that the task and epoch are still current before it
///     drains; a worker that loses the race leaves without touching it;
///   - close: after its own drain the caller clears the task pointer,
///     bumps the epoch again and waits only until the in-flight count is
///     0. Parked or late workers never hold it up.
/// Join, re-check, close and the caller's wait are sequentially
/// consistent, so either the worker's re-check sees the close or the
/// caller's wait sees the join. Each drainer leaves with a release
/// decrement that the wait reads (seq_cst includes acquire), so every
/// write made inside a body — privatized per-slot or per-range scratch
/// included — is visible to the caller when the dispatch returns, which is the
/// barrier the merge phases rely on.
///
/// One thread dispatches onto a given pool at a time (a pool's workers may
/// dispatch onto *other* pools). Concurrent dispatches onto one pool are
/// not supported; the serving daemon funnels its pool through one flusher.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }  // + caller thread

  /// How long a worker spins on the dispatch epoch after a task before it
  /// parks. Covers the serial gaps between back-to-back loops of a BFS
  /// level, so back-to-back dispatches rarely pay a futex wake-up.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// Upper bound on data shards per pool (per-shard claim cursors are a
  /// fixed array in the task frame). Matches obs::kShardStatsMax.
  static constexpr int kMaxShards = 8;

  /// Splits future sharded dispatches (parallel_shard_ranges) into
  /// `nshards` data shards: each pool slot gets a home shard whose range
  /// it drains first, stealing from the other shards round-robin only once
  /// its own is empty. With `pin_threads`, workers are additionally pinned
  /// to the CPUs of their shard's NUMA node (shard s -> node s mod nodes),
  /// so first-touch pages copied by a worker land on the node that will
  /// traverse them. nshards = 1 restores the default behaviour and unpins.
  /// Not thread-safe against concurrent dispatches; configure at setup.
  void configure_shards(int nshards, bool pin_threads = true);
  int num_shards() const { return nshards_; }

  /// Shard whose data the calling thread is currently draining (set by the
  /// sharded drain around each body invocation, including stolen chunks,
  /// so per-shard counters attribute work to the *data's* shard). 0 when
  /// outside a sharded dispatch.
  static int current_shard();

  /// Runs fn(begin, end) over disjoint chunks covering [0, n). Blocks until
  /// every chunk has completed. The calling thread participates.
  template <typename F>
  void parallel_ranges(index_t n, index_t chunk, F&& fn) {
    if (n <= 0) return;
    using Fn = std::remove_reference_t<F>;
    Task task;
    task.ctx = const_cast<void*>(static_cast<const void*>(&fn));
    task.invoke = [](void* ctx, index_t begin, index_t end) {
      (*static_cast<Fn*>(ctx))(begin, end);
    };
    task.n = n;
    task.chunk = chunk < 1 ? 1 : chunk;
    run_task(task);
  }

  /// Sharded variant: `shard_bounds` (length nshards + 1, starting at 0)
  /// partitions [0, n) into per-shard ranges; chunks never cross a shard
  /// boundary and every body invocation runs with current_shard() equal to
  /// the shard owning its range. Falls back to parallel_ranges when the
  /// bounds describe a single shard (or exceed kMaxShards).
  template <typename F>
  void parallel_shard_ranges(const std::vector<index_t>& shard_bounds,
                             index_t chunk, F&& fn) {
    const int ns = static_cast<int>(shard_bounds.size()) - 1;
    if (ns <= 0) return;
    const index_t n = shard_bounds.back();
    if (n <= 0) return;
    if (ns == 1 || ns > kMaxShards) {
      parallel_ranges(n, chunk, fn);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    Task task;
    task.ctx = const_cast<void*>(static_cast<const void*>(&fn));
    task.invoke = [](void* ctx, index_t begin, index_t end) {
      (*static_cast<Fn*>(ctx))(begin, end);
    };
    task.n = n;
    task.chunk = chunk < 1 ? 1 : chunk;
    task.nshards = ns;
    task.shard_bounds = shard_bounds.data();
    task.slot_shard = slot_shard_.empty() ? nullptr : slot_shard_.data();
    for (int s = 0; s < ns; ++s) {
      task.shard_next[s].store(shard_bounds[static_cast<std::size_t>(s)],
                               std::memory_order_relaxed);
    }
    run_task(task);
  }

  /// Shared default pool (size = hardware concurrency). Most library entry
  /// points take an optional pool pointer and fall back to this.
  static ThreadPool& shared();

  /// Dense per-pool slot of the calling thread: 0 for the thread currently
  /// driving a parallel_ranges dispatch, 1..workers for the dispatching
  /// pool's workers, and -1 for a thread outside any dispatch (a plain
  /// application thread, or a worker of some *other* pool). Always < size()
  /// while executing a body dispatched by this pool, which is what the
  /// per-slot scratch of TileBFS and the block SpMSpM engine relies on.
  static int current_slot();

  /// current_slot() with the off-pool sentinel folded into the caller
  /// bucket: returns 0 instead of -1. Kernels index per-slot scratch with
  /// this so serial sections run off-pool (e.g. on a serving daemon's
  /// request threads) land in the always-present slot-0 bucket instead of
  /// reading a stale foreign slot out of bounds.
  static int scratch_slot();

 private:
  struct Task {
    void (*invoke)(void*, index_t, index_t) = nullptr;
    void* ctx = nullptr;
    index_t n = 0;
    index_t chunk = 1;
    // Work-stealing cursor: the pool IS the synchronization layer the
    // atomic_* helpers sit on top of, and it needs fetch_add, which the
    // helpers deliberately don't expose. lint:allow(raw-atomic)
    std::atomic<index_t> next{0};
    // Sharded dispatch state: per-shard claim cursors over the ranges in
    // shard_bounds, plus the dispatching pool's slot->home-shard map.
    int nshards = 1;
    const index_t* shard_bounds = nullptr;
    const int* slot_shard = nullptr;
    std::atomic<index_t> shard_next[kMaxShards];  // lint:allow(raw-atomic)
  };

  void run_task(Task& task);
  void close_and_wait();
  void worker_loop();
  std::uint64_t await_epoch(std::uint64_t seen);
  static void drain(Task& task);
  static void drain_sharded(Task& task);

  int nshards_ = 1;
  std::vector<int> slot_shard_;  // home shard per pool slot (size() entries)

  // Dispatch state (see the class comment). The caller writes current_ and
  // epoch_; workers spin on them, so they share a line apart from the
  // in-flight count that joiners hammer. lint:allow(raw-atomic)
  alignas(64) std::atomic<Task*> current_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};  // lint:allow(raw-atomic)
  std::atomic<int> sleepers_{0};  // parked workers lint:allow(raw-atomic)
  std::atomic<bool> stop_{false};  // lint:allow(raw-atomic)
  alignas(64) std::atomic<int> inflight_{0};  // lint:allow(raw-atomic)
  // Park/wake handshake only: a parked worker re-reads epoch_ and stop_
  // under it, and whoever changes them takes it before notifying.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;  // last: its threads use the above
};

}  // namespace tilespmspv
