// Matrix residency for the serving daemon (ROADMAP item 2): converted
// TileMatrix instances stay resident in an LRU cache keyed by a content
// hash of their serialized bytes, so repeated queries against the same
// matrix never pay conversion twice and identical uploads under different
// names share one entry.
//
// Reload discipline (epoch-style snapshots): each cache entry holds a
// `std::shared_ptr<const MatrixSnapshot>`; a reload builds the new
// snapshot off to the side and swaps the pointer behind a per-entry spin
// lock from parallel/atomics.hpp, bumping the entry's epoch. Queries copy
// the pointer at admission, so in-flight work finishes on the snapshot it
// started with — the shared_ptr refcount keeps an evicted or replaced
// matrix alive until its last query returns, and readers never block on a
// rebuild.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/spmspv.hpp"
#include "formats/csr.hpp"
#include "tile/tile_matrix.hpp"
#include "util/types.hpp"

namespace tilespmspv::serve {

/// Immutable converted form of one ingested matrix. Built once (outside
/// any store lock), then only ever read.
struct MatrixSnapshot {
  std::string key;     // content hash, 16 lowercase hex chars
  std::string alias;   // optional human name ("" = none)
  std::string source;  // provenance: "suite:NAME" or "file:PATH"
  std::uint64_t epoch = 0;  // bumped on every swap of the same key
  index_t rows = 0;
  index_t cols = 0;
  offset_t nnz = 0;
  std::size_t bytes = 0;  // approximate resident footprint
  TileMatrix<value_t> tiled;    // A, the SpMSpV/SpMSpM operand
  TileMatrix<value_t> tiled_t;  // unit-weight tiled transpose (BFS expand)
  bool has_transpose = false;   // square matrices only
  // True when the tiled forms are zero-copy views into an mmapped v2 tile
  // file (the TileMatrix `storage` member keeps the mapping alive for as
  // long as any query holds the snapshot).
  bool mapped = false;
};

using SnapshotPtr = std::shared_ptr<const MatrixSnapshot>;

/// Validates `a` at the trust boundary (formats/validate.hpp) and builds
/// the resident snapshot: tiled form, plus the unit-weight tiled transpose
/// when the matrix is square (the BFS expand operand). `key` must be the
/// content key of the bytes `a` was parsed from. Throws
/// std::invalid_argument on validation failure.
SnapshotPtr build_snapshot(const Csr<value_t>& a, std::string key,
                           std::string alias, std::string source,
                           const SpmspvConfig& cfg);

/// Loads + validates a matrix file in one of the two formats, told apart
/// by the file's first four bytes.
///
///  - v2 tile files (TTLF, formats/tile_file.hpp): mmapped zero-copy; the
///    content key is the payload hash already stored in the 128-byte
///    header, so admission hashes nothing (the fast path the offline
///    `tilespmspv_cli convert` step buys).
///  - anything else is parsed as Matrix Market and tiled; the content key
///    is a chunked stream-hash of the raw file bytes — the file is never
///    materialized twice in memory. Bytes hashed are charged to the
///    `hash_bytes` counter on both paths.
///
/// Throws on I/O or validation failure, and on a file that is neither.
SnapshotPtr load_snapshot_file(const std::string& path, std::string alias,
                               const SpmspvConfig& cfg);

/// Builds a snapshot from a generator-suite matrix (gen/suite.hpp); the
/// content key hashes the canonical serialized CSR bytes, so the same
/// suite matrix loaded twice shares one entry.
SnapshotPtr load_snapshot_suite(const std::string& name, std::string alias,
                                const SpmspvConfig& cfg);

/// LRU cache of snapshots with byte-budget eviction and epoch-swapping
/// reload. Thread-safe; see the file comment for the swap discipline.
class MatrixStore {
 public:
  explicit MatrixStore(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  MatrixStore(const MatrixStore&) = delete;
  MatrixStore& operator=(const MatrixStore&) = delete;

  /// Looks up by content key or alias; bumps LRU recency. Returns nullptr
  /// when absent.
  SnapshotPtr get(const std::string& key_or_alias);

  /// Inserts `snap`, or — when its key is already resident — swaps the
  /// existing entry's pointer (epoch := old epoch + 1). Evicts least-
  /// recently-used entries until the byte budget holds (the incoming entry
  /// itself is never evicted). Returns the content key; evicted keys are
  /// appended to `evicted` when non-null.
  std::string put(SnapshotPtr snap, std::vector<std::string>* evicted);

  /// Drops the entry (by key or alias). In-flight queries holding the
  /// snapshot finish normally. Returns false when absent.
  bool erase(const std::string& key_or_alias);

  struct Info {
    std::string key;
    std::string alias;
    std::string source;
    index_t rows = 0;
    index_t cols = 0;
    offset_t nnz = 0;
    std::size_t bytes = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<Info> list() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t swaps = 0;
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    SnapshotPtr snap;  // swapped behind `lock`; copied by readers
    // Spin byte (parallel/atomics.hpp) guarding the pointer swap itself:
    // the map mutex serializes structure changes, the entry lock marks the
    // snapshot-swap critical section. lint:allow note: plain byte, the
    // helpers do the atomics.
    mutable unsigned char lock = 0;
    std::uint64_t tick = 0;  // LRU recency
  };

  // unique_ptr keeps Entry addresses stable across rehashes, so the spin
  // byte's address never moves under a waiter.
  using Map = std::vector<std::pair<std::string, std::unique_ptr<Entry>>>;

  Entry* find_locked(const std::string& key_or_alias);
  void evict_locked(const std::string& keep_key,
                    std::vector<std::string>* evicted);

  mutable std::mutex mu_;
  Map entries_;  // small N: linear scan beats a map for the daemon's scale
  std::size_t capacity_bytes_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, swaps_ = 0;
};

}  // namespace tilespmspv::serve
