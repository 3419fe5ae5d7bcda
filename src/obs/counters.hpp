// Runtime kernel counters: the measured counterpart of the analytic work
// model (core/work_model.hpp). Kernels accumulate into a thread-local
// counter block (one relaxed atomic add per flushed quantity, no shared
// cache line between threads); counters_snapshot() merges every thread's
// block on demand. The whole layer compiles to nothing when the build
// defines TILESPMSPV_NO_COUNTERS (CMake option of the same name), so the
// instrumented kernels carry zero cost in counter-free builds.
//
// Counter semantics mirror SpmspvWork so measured values can be compared
// against predictions (see tests/test_obs_work_model.cpp):
//   - tiles_scanned / tiles_computed / payload_macs match
//     work_tile_spmspv_csr exactly for the CSR-form kernel (a computed
//     tile multiplies all of its stored nonzeros);
//   - side_macs counts multiply-adds actually performed in the extracted
//     COO pass, which is at most the model's tile-granularity bound;
//   - the CSC-form kernel reports tiles_scanned == tiles_computed (every
//     visited tile is computed) and actual payload multiplies, which can
//     be below the model's whole-tile count when the vector tile has
//     interior zeros.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace tilespmspv::obs {

enum class Counter : int {
  kTilesScanned = 0,    // tile metadata entries visited by SpMSpV kernels
  kTilesSkippedEmpty,   // scanned tiles skipped because the x tile is empty
  kTilesComputed,       // tiles whose payload was multiplied
  kPayloadMacs,         // multiply-adds inside computed tiles
  kSideMacs,            // multiply-adds in the extracted (side COO) pass
  kGatherSlots,         // gather scans: tile rows (CSR), row-bitmap words (CSC)
  kBatchTilesShared,    // extra lanes reusing a computed tile's payload
  kBatchLaneMacs,       // lane multiply-add slots driven by the block engine
  kBfsIterPushCsc,      // BFS iterations run with the Push-CSC kernel
  kBfsIterPushCsr,      // BFS iterations run with the Push-CSR kernel
  kBfsIterPullCsc,      // BFS iterations run with the Pull-CSC kernel
  kBfsSideEdges,        // extracted edges relaxed by the BFS side pass
  kBfsFrontierWords,    // non-empty frontier words entering BFS iterations
  kBfsProducedWords,    // distinct output words produced by BFS iterations
  kBfsTilesVisited,     // tiles whose mask payload a BFS kernel touched
  kPoolLoops,           // parallel_ranges invocations (incl. serial path) + teams
  kPoolChunks,          // chunks, team shares and range chunks claimed
  kPoolWakes,           // dispatches published to pool workers
  kHashBytes,           // bytes fed to the matrix-store content hash
  kCount
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

/// Stable machine-readable name ("tiles_scanned", ...), used by the
/// metrics exporter and the CLI --profile table.
const char* counter_name(Counter c);

/// A merged point-in-time view of every thread's counters. Values are
/// monotonically increasing between resets, so two snapshots can be
/// subtracted to isolate one region of execution.
struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> v{};

  std::uint64_t operator[](Counter c) const {
    return v[static_cast<int>(c)];
  }

  CounterSnapshot operator-(const CounterSnapshot& rhs) const {
    CounterSnapshot d;
    for (int i = 0; i < kNumCounters; ++i) d.v[i] = v[i] - rhs.v[i];
    return d;
  }
};

#ifdef TILESPMSPV_NO_COUNTERS

inline constexpr bool counters_enabled() { return false; }
inline void counter_add(Counter, std::uint64_t) {}
inline CounterSnapshot counters_snapshot() { return {}; }
inline void counters_reset() {}

#else

namespace detail {

/// One cache-padded block per thread; blocks live until process exit so a
/// snapshot can still read contributions from threads that have finished.
struct alignas(64) CounterBlock {
  // Counter cells are read by snapshot() while workers bump them; the
  // atomic_* helpers wrap plain storage, which a concurrent reader makes
  // the wrong shape here. lint:allow(raw-atomic)
  std::array<std::atomic<std::uint64_t>, kNumCounters> v{};
};

CounterBlock& thread_block();

}  // namespace detail

inline constexpr bool counters_enabled() { return true; }

/// Adds `n` to counter `c` on the calling thread's block. Hot kernels
/// accumulate locally and flush once per task, so this stays off the
/// innermost loops.
inline void counter_add(Counter c, std::uint64_t n) {
  detail::thread_block().v[static_cast<int>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

/// Merges every registered thread block.
CounterSnapshot counters_snapshot();

/// Zeroes every registered thread block. Callers are expected to reset
/// while the instrumented kernels are quiescent; increments racing a reset
/// land on one side of it, never corrupt.
void counters_reset();

#endif  // TILESPMSPV_NO_COUNTERS

}  // namespace tilespmspv::obs
