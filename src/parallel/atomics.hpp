// Atomic helpers over plain integral words, after the CUDA primitives the
// paper's kernels use (atomicOr, atomicCAS). There is no atomicAdd: the
// SpMSpV and SpMSpM kernels sum partial results in a fixed range order
// instead, so a floating-point result never depends on thread timing. The
// OR users (multi-source BFS frontiers) only need monotone idempotent OR,
// so relaxed ordering suffices (every kernel launch is separated by a pool
// barrier, which publishes all writes before the next phase reads them).
#pragma once

#include <atomic>
#include <type_traits>

namespace tilespmspv {

/// atomicOr equivalent over a plain word stored in a vector. The storage is
/// reinterpreted as std::atomic, which is valid for lock-free integral
/// atomics of the same size (guaranteed for uint8..uint64 on x86-64).
template <typename W>
inline void atomic_or(W* target, W bits) {
  static_assert(std::is_integral_v<W>);
  reinterpret_cast<std::atomic<W>*>(target)->fetch_or(
      bits, std::memory_order_relaxed);
}

/// Relaxed atomic load of a plain word (pairs with atomic_or above).
template <typename W>
inline W atomic_load(const W* target) {
  static_assert(std::is_integral_v<W>);
  return reinterpret_cast<const std::atomic<W>*>(target)->load(
      std::memory_order_relaxed);
}

/// Relaxed atomic store of a plain word. For idempotent updates where
/// overlapping tasks may write the same value (bottom-up BFS level
/// assignment, shared flag maps) — atomicity only exists to keep the
/// formal data race out, not to order anything.
template <typename W>
inline void atomic_store(W* target, W v) {
  static_assert(std::is_integral_v<W>);
  reinterpret_cast<std::atomic<W>*>(target)->store(v,
                                                   std::memory_order_relaxed);
}

/// atomicCAS equivalent: claims `*target` for `desired` iff it still holds
/// `expected`. The BFS baselines claim unvisited vertices by CAS-ing the
/// level array from -1; exactly one claimant wins. Returns true for the
/// winner. The relaxed pre-load keeps the common already-claimed case off
/// the bus-locked path.
template <typename T>
inline bool atomic_claim(T* target, T expected, T desired) {
  static_assert(std::is_integral_v<T>);
  auto* a = reinterpret_cast<std::atomic<T>*>(target);
  if (a->load(std::memory_order_relaxed) != expected) return false;
  return a->compare_exchange_strong(expected, desired,
                                    std::memory_order_relaxed);
}

/// Byte spinlock (acquire/release) over plain storage, for short per-tile
/// critical sections where a vector of std::atomic_flag would need C++20
/// initialization gymnastics. Pairs: spin_lock / spin_unlock.
inline void spin_lock(unsigned char* lock) {
  auto* a = reinterpret_cast<std::atomic<unsigned char>*>(lock);
  unsigned char expected = 0;
  while (!a->compare_exchange_weak(expected, 1, std::memory_order_acquire)) {
    expected = 0;
  }
}

inline void spin_unlock(unsigned char* lock) {
  reinterpret_cast<std::atomic<unsigned char>*>(lock)->store(
      0, std::memory_order_release);
}

/// Busy-wait hint for spin loops: `pause` on x86, `yield` on aarch64, a
/// no-op elsewhere. It frees the core's pipeline for a sibling hyperthread
/// and keeps the loop from flooding the memory system with speculative
/// loads of the word it polls.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace tilespmspv
