#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/counters.hpp"
#include "obs/shard_stats.hpp"
#include "obs/trace.hpp"
#include "parallel/arena.hpp"
#include "parallel/atomics.hpp"

namespace tilespmspv {

namespace {
// Slot of the current thread within the pool that spawned it. Worker slots
// are assigned once at spawn (1..workers); every other thread carries the
// -1 off-pool sentinel until a run_task binds it. The sentinel matters:
// the old default of 0 made a worker of pool A look like a valid slot of a
// smaller pool B, so kernels invoked across pools (or from plain threads,
// as the serving daemon's request threads do) indexed per-slot workspaces
// out of bounds.
thread_local int t_slot = -1;

// Data shard whose range the thread is currently draining (sharded
// dispatches only); -1 outside. Set around each body invocation — to the
// *chunk's* shard, not the thread's home shard — so stolen chunks still
// attribute their counters to the shard that owns the data.
thread_local int t_shard = -1;

// Spin-then-yield wait for `done()`. The spin covers the usual case (the
// awaited threads are running on other CPUs and finish within
// microseconds); yielding early hands the CPU to an awaited thread that
// shares it (a pinned caller, an oversubscribed or single-CPU host).
template <typename Done>
void wait_until(Done&& done) {
  for (unsigned spins = 0; !done(); ++spins) {
    if (spins < 256) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

// RAII binding of the calling thread to the caller slot (0) of the pool
// currently dispatching it. Saving and restoring the previous value keeps
// nested dispatch correct: a worker of pool A that enters pool B's
// parallel_ranges runs B's body as B's slot 0 and reverts to its A slot
// afterwards, so slots seen inside a body are always dense in [0, size())
// of the dispatching pool.
struct CallerSlotBinding {
  int saved;
  CallerSlotBinding() : saved(t_slot) { t_slot = 0; }
  ~CallerSlotBinding() { t_slot = saved; }
  CallerSlotBinding(const CallerSlotBinding&) = delete;
  CallerSlotBinding& operator=(const CallerSlotBinding&) = delete;
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread always participates, so spawn one fewer worker.
  const std::size_t spawned = threads - 1;
  joined_ = std::make_unique<JoinSlot[]>(spawned);
  workers_.reserve(spawned);
  for (std::size_t i = 0; i < spawned; ++i) {
    workers_.emplace_back(
        [this, slot = static_cast<int>(i) + 1] { worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

int ThreadPool::current_slot() { return t_slot; }

int ThreadPool::scratch_slot() {
  const int s = t_slot;
  return s < 0 ? 0 : s;
}

int ThreadPool::current_shard() {
  const int s = t_shard;
  return s < 0 ? 0 : s;
}

void ThreadPool::configure_shards(int nshards, bool pin_threads) {
  nshards = std::max(1, std::min(nshards, kMaxShards));
  nshards_ = nshards;
  const std::size_t slots = size();
  slot_shard_.assign(slots, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    slot_shard_[slot] =
        static_cast<int>(slot * static_cast<std::size_t>(nshards) / slots);
  }
#if defined(__linux__)
  const NumaTopology topo = NumaTopology::detect();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (nshards == 1 || !pin_threads) {
      // Unpin: the union of every node's CPUs.
      for (const NumaNode& node : topo.nodes) {
        for (int c : node.cpus) CPU_SET(static_cast<std::size_t>(c), &set);
      }
    } else {
      const int shard = slot_shard_[i + 1];  // worker i occupies slot i + 1
      const NumaNode& node =
          topo.nodes[static_cast<std::size_t>(shard % topo.num_nodes())];
      for (int c : node.cpus) CPU_SET(static_cast<std::size_t>(c), &set);
    }
    pthread_setaffinity_np(workers_[i].native_handle(), sizeof(set), &set);
  }
#else
  (void)pin_threads;
#endif
}

void ThreadPool::drain(Task& task) {
  if (task.nshards > 1) {
    drain_sharded(task);
    return;
  }
  const std::uint64_t chunks =
      drain_range(task.next, task.n, task.chunk, [&](index_t b, index_t e) {
        task.invoke(task.ctx, b, e);
      });
  obs::counter_add(obs::Counter::kPoolChunks, chunks);
}

void ThreadPool::drain_sharded(Task& task) {
  const int slot = t_slot < 0 ? 0 : t_slot;
  const int home =
      task.slot_shard == nullptr ? slot % task.nshards : task.slot_shard[slot];
  std::uint64_t chunks = 0;
  for_each_home_first(task.nshards, home, [&](int s) {
    const auto t0 = std::chrono::steady_clock::now();
    const int saved = t_shard;
    t_shard = s;
    const std::uint64_t claimed = drain_range(
        task.shard_next[s], task.shard_bounds[s + 1], task.chunk,
        [&](index_t b, index_t e) { task.invoke(task.ctx, b, e); });
    chunks += claimed;
    t_shard = saved;
    if (claimed > 0) {
      const std::chrono::duration<double, std::milli> dt =
          std::chrono::steady_clock::now() - t0;
      obs::shard_add_ms(s, dt.count());
    }
  });
  obs::counter_add(obs::Counter::kPoolChunks, chunks);
}

std::uint64_t ThreadPool::await_epoch(std::uint64_t seen) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned spins = 1;; ++spins) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e != seen || stop_.load(std::memory_order_relaxed)) return e;
    // The clock read costs more than a poll; check it every 64 polls.
    if (spins % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    cpu_relax();
  }
  // Park. Registering in sleepers_ before re-reading the epoch pairs with
  // run_task's bump-then-read: either the publisher sees this sleeper and
  // notifies, or the predicate below sees the new epoch.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  std::uint64_t e = seen;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      e = epoch_.load(std::memory_order_seq_cst);
      return e != seen || stop_.load(std::memory_order_relaxed);
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  return e;
}

void ThreadPool::worker_loop(int slot) {
  t_slot = slot;
  std::atomic<Task*>& joined = joined_[slot - 1].task;  // lint:allow(raw-atomic)
  std::uint64_t seen = 0;
  for (;;) {
    seen = await_epoch(seen);
    if (stop_.load(std::memory_order_relaxed)) return;
    Task* task = current_.load(std::memory_order_seq_cst);
    if (task == nullptr) continue;  // woke on a close
    joined.store(task, std::memory_order_seq_cst);  // join
    // Re-check after joining: if the caller closed this task first it may
    // already have returned, and *task is gone. A reused stack address
    // comes back under a newer epoch, so the epoch check also rules out
    // working on some later task by mistake.
    if (current_.load(std::memory_order_seq_cst) == task &&
        epoch_.load(std::memory_order_seq_cst) == seen) {
      obs::TraceSpan span("pool/task", "pool");
      if (task->team != nullptr) {
        task->team->serve();
      } else {
        drain(*task);
      }
    }
    joined.store(nullptr, std::memory_order_release);  // leave
  }
}

void ThreadPool::publish(Task& task) {
  current_.store(&task, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // A parked worker evaluates its predicate under the mutex; passing
    // through it orders the epoch bump before that evaluation or the
    // notify after the worker's wait began, so no wake-up is lost.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }
}

void ThreadPool::close_and_wait(Task& task) {
  // Unpublish only our own task: another caller may have published since.
  Task* mine = &task;
  current_.compare_exchange_strong(mine, nullptr, std::memory_order_seq_cst);
  // Wait for the workers inside this task; parked and late ones re-check
  // and back off, and workers inside other tasks are not ours to wait
  // for. The loads must be seq_cst, not merely acquire: the close above
  // and these loads touch different variables, and only sequential
  // consistency keeps them from reordering against a worker's
  // join-then-re-check. A joined worker is mid-task, so this is short
  // unless the host is oversubscribed and preempted it.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    wait_until([&] {
      return joined_[w].task.load(std::memory_order_seq_cst) != &task;
    });
  }
}

void ThreadPool::run_task(Task& task) {
  obs::counter_add(obs::Counter::kPoolLoops, 1);
  if (workers_.empty() || task.n <= task.chunk) {
    // Serial fast path: no coordination cost for small loops. Sharded
    // tasks still go through the sharded drain so each range runs with
    // current_shard() bound to its data shard and per-shard wall time is
    // recorded — single-core runs keep the same attribution semantics.
    obs::TraceSpan span("pool/parallel_ranges", "pool", "serial");
    CallerSlotBinding bind;
    if (task.nshards > 1) {
      drain_sharded(task);
    } else {
      task.invoke(task.ctx, 0, task.n);
    }
    return;
  }
  obs::TraceSpan span("pool/parallel_ranges", "pool");
  obs::counter_add(obs::Counter::kPoolWakes, 1);
  publish(task);
  try {
    CallerSlotBinding bind;
    drain(task);  // caller thread participates as slot 0
  } catch (...) {
    close_and_wait(task);  // workers may still be draining the caller's frame
    throw;
  }
  close_and_wait(task);
}

ThreadPool::Team::Team(ThreadPool& pool)
    : pool_(pool),
      shares_(static_cast<int>(pool.size())),
      tags_(std::make_unique<Tag[]>(pool.size())),
      cursors_(std::make_unique<Cursor[]>(pool.size())) {
  task_.team = this;
}

void ThreadPool::run_team(void (*lead)(void*, Team&), void* ctx) {
  obs::counter_add(obs::Counter::kPoolLoops, 1);
  obs::TraceSpan span("pool/team", "pool");
  CallerSlotBinding bind;
  Team team(*this);
  auto close = [&] {
    if (workers_.empty()) return;
    team.closed_.store(true, std::memory_order_seq_cst);
    close_and_wait(team.task_);
  };
  try {
    lead(ctx, team);
  } catch (...) {
    close();
    throw;
  }
  close();
}

void ThreadPool::Team::run_phase() {
  const std::uint64_t p = ++phases_;
  const std::uint64_t end = p * static_cast<std::uint64_t>(shares_);
  phase_.store(p, std::memory_order_seq_cst);
  if (!pool_.workers_.empty()) {
    // Members still in the team see the phase counter move; publishing
    // the team again calls back the ones that left (and wakes parked ones).
    pool_.publish(task_);
  }
  claim(p, 0);  // the leader is slot 0
  wait_until([&] { return done_.load(std::memory_order_acquire) == end; });
  if (failed_.load(std::memory_order_acquire)) {
    failed_.store(false, std::memory_order_relaxed);
    std::exception_ptr e;
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      e = std::exchange(error_, nullptr);
    }
    std::rethrow_exception(e);
  }
}

void ThreadPool::Team::claim(std::uint64_t phase, int home) {
  std::uint64_t ran = 0;
  for_each_home_first(shares_, home, [&](int s) {
    std::atomic<std::uint64_t>& tag = tags_[s].phase;  // lint:allow(raw-atomic)
    std::uint64_t last = tag.load(std::memory_order_relaxed);
    if (last >= phase ||
        !tag.compare_exchange_strong(last, phase, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      return;  // started by someone else, or the phase is over
    }
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        invoke_(ctx_, s);
      } catch (...) {
        fail(std::current_exception());
      }
    }
    ++ran;
    done_.fetch_add(1, std::memory_order_acq_rel);
  });
  obs::counter_add(obs::Counter::kPoolChunks, ran);
}

void ThreadPool::Team::fail(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (error_ == nullptr) error_ = std::move(e);
  failed_.store(true, std::memory_order_release);
}

void ThreadPool::Team::serve() {
  const int home = t_slot % shares_;
  const auto shares = static_cast<std::uint64_t>(shares_);
  std::uint64_t seen = 0;
  auto idle_since = std::chrono::steady_clock::now();
  auto deadline = idle_since + kSpinBudget;
  for (unsigned spins = 1;; ++spins) {
    if (closed_.load(std::memory_order_acquire)) return;
    const std::uint64_t p = phase_.load(std::memory_order_acquire);
    if (p != seen) {
      seen = p;
      claim(p, home);
      idle_since = std::chrono::steady_clock::now();
      deadline = idle_since + kSpinBudget;
      spins = 0;
      continue;
    }
    // The clock read costs more than a poll; check it every 64 polls.
    if (spins % 64 != 0) {
      cpu_relax();
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    // Phase `seen` is over once done_ reaches seen * shares. While it
    // runs the next phase is still to come: stay, but past the spin
    // budget hand the CPU to members that are still working
    // (oversubscribed and single-CPU hosts).
    if (done_.load(std::memory_order_relaxed) < seen * shares) {
      deadline = now + kSpinBudget;
      if (now - idle_since >= kSpinBudget) std::this_thread::yield();
    } else if (now >= deadline) {
      return;  // idle: leave; the next phase's publish calls us back
    }
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace tilespmspv
