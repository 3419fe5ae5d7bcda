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
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace tilespmspv {

/// Fixed-size pool executing blocked parallel-for loops and caller-led
/// teams.
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
///   - join: a worker that sees a new epoch writes the task pointer into
///     its own join slot, then re-checks that the task and epoch are still
///     current before it works; a worker that loses the race clears its
///     slot without touching the task;
///   - close: after its own work the caller unpublishes its task (only if
///     it is still the published one) and waits until no join slot holds
///     it. Parked workers, late workers and workers inside other tasks
///     never hold it up.
/// Join, re-check, close and the caller's wait are sequentially
/// consistent, so either the worker's re-check sees the close or the
/// caller's wait sees the join. A worker leaves by storing to its join
/// slot with release semantics and the wait reads it (seq_cst includes
/// acquire), so every write made inside a body — privatized per-slot or
/// per-range scratch included — is visible to the caller when the dispatch
/// returns, which is the barrier the merge phases rely on.
///
/// Several threads may dispatch onto one pool at once. A later publish
/// replaces the published task, so workers help whichever caller published
/// last, but every caller can finish its own task alone and waits only for
/// the workers inside its own task. Per-slot scratch is per dispatch: two
/// concurrent callers both run as slot 0, so they must not share a
/// workspace. A body must not dispatch onto its own pool.
class ThreadPool {
 private:
  struct Task;

 public:
  class Team;

  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }  // + caller thread

  /// How long a worker spins on the dispatch epoch after a task, and a team
  /// member on the team's phase counter after a phase, before it parks.
  /// Covers the serial gaps between back-to-back loops, so back-to-back
  /// dispatches rarely pay a futex wake-up.
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

  /// Home data shard of pool slot `slot` (0 when the pool is not sharded).
  /// Slots sharing a home shard are consecutive.
  int home_shard(int slot) const {
    return slot_shard_.empty() ? 0 : slot_shard_[static_cast<std::size_t>(slot)];
  }

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

  /// Runs lead(team) on the calling thread as the leader of a team made of
  /// this pool's threads, for a sequence of phases that would otherwise be
  /// one dispatch each (every level of a BFS traversal). The team is one
  /// pool task: workers join it once and stay while phases keep coming.
  ///
  /// Team protocol:
  ///   - a phase is team.run(share): share(i) runs exactly once for every
  ///     i in [0, team.size()), and run() returns when all shares are done;
  ///   - pool slot i's home share is i: a member works its home share first
  ///     and then takes shares nobody has started (the pool's home-first
  ///     claim order, as for data shards);
  ///   - a phase ends when all of its shares are done, not when members
  ///     arrive: the leader takes every share no member has started, so a
  ///     worker that is busy elsewhere, parked or descheduled never holds a
  ///     phase up;
  ///   - a member that finished its shares stays while the phase runs
  ///     (yielding once it has idled for kSpinBudget), spins on the team's
  ///     phase counter for kSpinBudget after the phase ends, then leaves
  ///     the team and parks like any idle worker; each phase re-publishes
  ///     the team, which calls it back;
  ///   - a share that throws still counts as done; the phase's remaining
  ///     shares are skipped, and run() rethrows the first exception on the
  ///     leader once every started share has finished.
  /// lead_team returns (or rethrows what lead threw) after every member has
  /// left the team. Shares of one phase must not depend on one another;
  /// everything a phase wrote is visible to the leader and to the next
  /// phase. Counts as one dispatch (the pool_loops counter).
  template <typename Lead>
  void lead_team(Lead&& lead) {
    using Fn = std::remove_reference_t<Lead>;
    run_team([](void* ctx, Team& team) { (*static_cast<Fn*>(ctx))(team); },
             const_cast<void*>(static_cast<const void*>(&lead)));
  }

  /// Shared default pool (size = hardware concurrency). Most library entry
  /// points take an optional pool pointer and fall back to this.
  static ThreadPool& shared();

  /// Dense per-pool slot of the calling thread: 0 for the thread currently
  /// driving a parallel_ranges dispatch or leading a team, 1..workers for
  /// the dispatching pool's workers, and -1 for a thread outside any
  /// dispatch (a plain application thread, or a worker of some *other*
  /// pool). Always < size() while executing a body dispatched by this
  /// pool, which is what the per-slot scratch of the block SpMSpM engine
  /// relies on.
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
    // Set for a team's task: joiners serve the team instead of draining.
    Team* team = nullptr;
  };

  // A worker's join slot: the task it is inside, or nullptr. Padded so
  // joins do not contend.
  struct alignas(64) JoinSlot {
    std::atomic<Task*> task{nullptr};  // lint:allow(raw-atomic)
  };

  // The pool's claim code, shared by plain and sharded loops and by team
  // phases. for_each_home_first is the one claim order (units = data
  // shards, shares or home ranges): the home unit first, then the others
  // round-robin, so a thread starts on the data it owns and only then
  // helps. drain_range is the one claim loop: it claims chunks of `chunk`
  // from `next` until the range ending at `end` runs dry, runs
  // run(begin, end) on each, and returns how many it claimed.
  template <typename Claim>
  static void for_each_home_first(int units, int home, Claim&& claim) {
    for (int k = 0; k < units; ++k) claim((home + k) % units);
  }
  template <typename T, typename Run>
  static std::uint64_t drain_range(std::atomic<T>& next,  // lint:allow(raw-atomic)
                                   T end, T chunk, Run&& run) {
    std::uint64_t chunks = 0;
    // A dry range costs a read, not a write to a line others poll.
    if (next.load(std::memory_order_relaxed) >= end) return chunks;
    for (;;) {
      const T begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= end) return chunks;
      ++chunks;
      run(begin, begin + chunk < end ? begin + chunk : end);
    }
  }

  void run_task(Task& task);
  void run_team(void (*lead)(void*, Team&), void* ctx);
  void publish(Task& task);
  void close_and_wait(Task& task);
  void worker_loop(int slot);
  std::uint64_t await_epoch(std::uint64_t seen);
  static void drain(Task& task);
  static void drain_sharded(Task& task);

  int nshards_ = 1;
  std::vector<int> slot_shard_;  // home shard per pool slot (size() entries)

  // Dispatch state (see the class comment). Callers write current_ and
  // epoch_; workers spin on them. lint:allow(raw-atomic)
  alignas(64) std::atomic<Task*> current_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};  // lint:allow(raw-atomic)
  std::atomic<int> sleepers_{0};  // parked workers lint:allow(raw-atomic)
  std::atomic<bool> stop_{false};  // lint:allow(raw-atomic)
  std::unique_ptr<JoinSlot[]> joined_;  // one per worker (slot - 1)
  // Park/wake handshake only: a parked worker re-reads epoch_ and stop_
  // under it, and whoever changes them takes it before notifying.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;  // last: its threads use the above
};

/// The leader's handle on a team (see ThreadPool::lead_team). Lives in the
/// leader's frame; members reach it through the team's pool task.
class ThreadPool::Team {
 public:
  /// Shares per phase: the pool size, one home share per pool slot.
  int size() const { return shares_; }

  /// One phase: share(i) for every i in [0, size()), each exactly once, on
  /// whichever team member claims it. Returns when all are done.
  template <typename F>
  void run(F&& share) {
    using Fn = std::remove_reference_t<F>;
    invoke_ = [](void* ctx, int i) { (*static_cast<Fn*>(ctx))(i); };
    ctx_ = const_cast<void*>(static_cast<const void*>(&share));
    run_phase();
  }

  /// One phase over ranges of work units: `bounds` (size() + 1 entries
  /// from 0) gives share i the home range [bounds[i], bounds[i + 1]).
  /// Share i claims `chunk` units at a time from its home range and, once
  /// that runs dry, from the other ranges, as a sharded loop does, and
  /// calls fn(i, begin, end) for each: a slot stays on its own range, and
  /// the phase still balances when the ranges' costs differ. fn gets the
  /// share that runs the units, not the range they came from, so per-share
  /// outputs stay private.
  template <typename T, typename F>
  void run_ranges(const std::vector<T>& bounds, T chunk, F&& fn) {
    for (int r = 0; r < shares_; ++r) {
      cursors_[r].next.store(bounds[static_cast<std::size_t>(r)],
                             std::memory_order_relaxed);
    }
    run([&](int i) {
      for_each_home_first(shares_, i, [&](int r) {
        drain_range(cursors_[r].next,
                    static_cast<offset_t>(bounds[static_cast<std::size_t>(r) + 1]),
                    static_cast<offset_t>(chunk), [&](offset_t b, offset_t e) {
                      fn(i, static_cast<T>(b), static_cast<T>(e));
                    });
      });
    });
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

 private:
  friend class ThreadPool;

  // A share's claim tag: the last phase that claimed it. A claim moves it
  // from below the phase to the phase, so a member still walking an
  // earlier phase can never take a share of a later one.
  struct alignas(64) Tag {
    std::atomic<std::uint64_t> phase{0};  // lint:allow(raw-atomic)
  };
  // A home range's claim cursor (run_ranges). Only touched by a member
  // holding a share of the current phase, so the leader may reset it
  // between phases.
  struct alignas(64) Cursor {
    std::atomic<offset_t> next{0};  // lint:allow(raw-atomic)
  };

  explicit Team(ThreadPool& pool);

  void run_phase();
  void serve();
  void claim(std::uint64_t phase, int home);
  void fail(std::exception_ptr e);

  ThreadPool& pool_;
  const int shares_;
  std::unique_ptr<Tag[]> tags_;
  std::unique_ptr<Cursor[]> cursors_;
  // The current phase's body. Written by the leader only between phases,
  // read by a member only while it holds a claimed share of the phase.
  void (*invoke_)(void*, int) = nullptr;
  void* ctx_ = nullptr;
  std::uint64_t phases_ = 0;  // leader only: phases published so far
  Task task_;
  // Leader-written state members poll. lint:allow(raw-atomic)
  alignas(64) std::atomic<std::uint64_t> phase_{0};
  std::atomic<bool> closed_{false};  // lint:allow(raw-atomic)
  // Shares finished over all phases: phase p has ended once it reaches
  // p * shares_. lint:allow(raw-atomic)
  alignas(64) std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> failed_{false};  // lint:allow(raw-atomic)
  std::mutex error_mutex_;
  std::exception_ptr error_;  // first exception a share threw
};

}  // namespace tilespmspv
