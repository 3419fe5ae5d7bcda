// Format-invariant validation layer (the trust boundary for every sparse
// structure in the library).
//
// Each validator re-checks the documented invariants of one structure —
// pointer monotonicity and terminal sums, index bounds (including the
// 4-bit packed coordinates and the bitmask word widths), extracted-COO
// consistency, and agreement of the derived run-list / strategy-byte /
// chunk arrays with the tile payload — and returns a structured
// ValidationResult instead of asserting, so callers at the trust boundary
// (the tile-file mapper, Matrix Market ingest, the validate CLI) can reject
// corrupt or adversarial inputs with a clear error while debug builds get
// the same checks as conversion postconditions.
//
// The validators are deliberately duck-typed (templated on the structure
// type, not on the structure headers) so this header sits below every
// format header and each structure can self-check without include cycles.
// They must stay safe on *arbitrary* member values: checks are ordered in
// gates, and content scans only run once the size/shape gates they index
// through have passed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/arena.hpp"
#include "util/bitops.hpp"
#include "util/types.hpp"

namespace tilespmspv {

/// One violated invariant: a stable slug ("tile_row_ptr/monotone") plus a
/// human-readable detail with the offending values.
struct ValidationIssue {
  std::string invariant;
  std::string detail;
};

/// Outcome of a validator run. Empty issue list means the structure holds
/// every checked invariant. Issue collection is capped so validating
/// garbage stays cheap; `truncated` records that the cap was hit.
struct ValidationResult {
  static constexpr std::size_t kMaxIssues = 16;

  std::vector<ValidationIssue> issues;
  bool truncated = false;

  bool ok() const { return issues.empty(); }
  bool full() const { return issues.size() >= kMaxIssues; }

  void add(std::string invariant, std::string detail) {
    if (full()) {
      truncated = true;
      return;
    }
    issues.push_back({std::move(invariant), std::move(detail)});
  }

  /// Appends another result's issues under a slug prefix (used to nest the
  /// extracted-COO check inside the tile-matrix validator).
  void merge(const ValidationResult& other, const std::string& prefix) {
    for (const auto& i : other.issues) add(prefix + i.invariant, i.detail);
    if (other.truncated) truncated = true;
  }

  /// All issues joined into one line (what require_valid throws).
  std::string message() const {
    std::string out;
    for (const auto& i : issues) {
      if (!out.empty()) out += "; ";
      out += i.invariant + ": " + i.detail;
    }
    if (truncated) out += "; (more issues suppressed)";
    return out.empty() ? std::string("ok") : out;
  }
};

/// Throwing wrapper: turns a failed validation into std::runtime_error —
/// the same exception type the file readers already use for truncated
/// input, so trust-boundary callers handle one error family.
inline void require_valid(const ValidationResult& r, const char* what) {
  if (!r.ok()) {
    throw std::runtime_error(std::string(what) + ": invalid structure: " +
                             r.message());
  }
}

// Conversion postconditions: on by default in debug builds, opt-in for
// release via -DTILESPMSPV_VALIDATE_CONVERSIONS (the ASan/UBSan CI job
// sets it so every conversion in the whole test suite is re-checked).
#if !defined(NDEBUG) || defined(TILESPMSPV_VALIDATE_CONVERSIONS)
#define TILESPMSPV_CHECK_POSTCONDITIONS 1
#else
#define TILESPMSPV_CHECK_POSTCONDITIONS 0
#endif

#define TILESPMSPV_POSTCONDITION(result_expr, what)     \
  do {                                                  \
    if (TILESPMSPV_CHECK_POSTCONDITIONS) {              \
      ::tilespmspv::require_valid((result_expr), (what)); \
    }                                                   \
  } while (0)

namespace detail {

/// Bitwise value equality, so validators agree with the serializer on NaN
/// payloads (a NaN value is corrupt data, not an invariant violation).
template <typename T>
bool bit_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

inline std::string idx_str(std::int64_t i) { return std::to_string(i); }

/// Prefix-sum ("pointer") array check: exact length, starts at zero,
/// nondecreasing, terminal equals `total`. Returns false when any check
/// failed (callers must then stop indexing through the array). Templated
/// on the container so both std::vector and ArrayBuf (owned or mapped
/// views) validate through the same code.
template <typename PtrArray>
bool check_ptr_array(ValidationResult& r, const PtrArray& ptr,
                     std::size_t expect_len, std::int64_t total,
                     const char* name) {
  if (ptr.size() != expect_len) {
    r.add(std::string(name) + "/length",
          "expected " + idx_str(static_cast<std::int64_t>(expect_len)) +
              " entries, got " + idx_str(static_cast<std::int64_t>(ptr.size())));
    return false;
  }
  if (ptr.empty()) return true;
  if (ptr.front() != 0) {
    r.add(std::string(name) + "/origin",
          "first entry is " + idx_str(static_cast<std::int64_t>(ptr.front())) +
              ", expected 0");
    return false;
  }
  for (std::size_t i = 1; i < ptr.size(); ++i) {
    if (ptr[i] < ptr[i - 1]) {
      r.add(std::string(name) + "/monotone",
            "decreases at index " + idx_str(static_cast<std::int64_t>(i)) +
                " (" + idx_str(static_cast<std::int64_t>(ptr[i - 1])) + " -> " +
                idx_str(static_cast<std::int64_t>(ptr[i])) + ")");
      return false;
    }
  }
  if (static_cast<std::int64_t>(ptr.back()) != total) {
    r.add(std::string(name) + "/total",
          "terminal sum " + idx_str(static_cast<std::int64_t>(ptr.back())) +
              " != expected " + idx_str(total));
    return false;
  }
  return true;
}

/// All entries in [0, bound). Reports only the first offender.
template <typename IdxArray>
bool check_index_range(ValidationResult& r, const IdxArray& idx,
                       std::int64_t bound, const char* name) {
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const auto v = static_cast<std::int64_t>(idx[i]);
    if (v < 0 || v >= bound) {
      r.add(std::string(name) + "/range",
            "entry " + idx_str(static_cast<std::int64_t>(i)) + " is " +
                idx_str(v) + ", valid range [0, " + idx_str(bound) + ")");
      return false;
    }
  }
  return true;
}

/// Scheduling-chunk boundaries: optional (kernels fall back to uniform
/// chunks when absent), but when present they must start at 0, strictly
/// increase, and — when they describe more than one boundary — cover
/// [0, tile_rows) exactly.
template <typename ChunkArray>
void check_row_chunks(ValidationResult& r, const ChunkArray& chunks,
                      std::int64_t tile_rows, const char* name) {
  if (chunks.empty()) return;
  if (chunks.front() != 0) {
    r.add(std::string(name) + "/origin", "first boundary is " +
                                             idx_str(chunks.front()) +
                                             ", expected 0");
    return;
  }
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    if (chunks[i] <= chunks[i - 1]) {
      r.add(std::string(name) + "/monotone",
            "boundary " + idx_str(static_cast<std::int64_t>(i)) +
                " does not increase");
      return;
    }
  }
  if (static_cast<std::int64_t>(chunks.back()) > tile_rows) {
    r.add(std::string(name) + "/coverage",
          "last boundary " + idx_str(static_cast<std::int64_t>(chunks.back())) +
              " exceeds tile_rows " + idx_str(tile_rows));
    return;
  }
  if (chunks.size() >= 2 &&
      static_cast<std::int64_t>(chunks.back()) != tile_rows) {
    r.add(std::string(name) + "/coverage",
          "chunks end at " + idx_str(static_cast<std::int64_t>(chunks.back())) +
              ", not at tile_rows " + idx_str(tile_rows));
  }
}

}  // namespace detail

/// COO matrix: nonnegative dims, parallel arrays, in-range indices.
template <typename C>
ValidationResult validate_coo(const C& m) {
  ValidationResult r;
  if (m.rows < 0 || m.cols < 0) {
    r.add("dims/nonnegative", "rows=" + std::to_string(m.rows) +
                                  " cols=" + std::to_string(m.cols));
    return r;
  }
  if (m.row_idx.size() != m.vals.size() || m.col_idx.size() != m.vals.size()) {
    r.add("arrays/parallel",
          "row_idx/col_idx/vals sizes " + std::to_string(m.row_idx.size()) +
              "/" + std::to_string(m.col_idx.size()) + "/" +
              std::to_string(m.vals.size()) + " differ");
    return r;
  }
  detail::check_index_range(r, m.row_idx, m.rows, "row_idx");
  detail::check_index_range(r, m.col_idx, m.cols, "col_idx");
  return r;
}

/// CSR matrix: row pointer is a prefix sum over nnz, column indices are
/// in range and strictly increasing within each row (duplicates merged —
/// the precondition Csr::from_coo documents and every kernel assumes).
template <typename M>
ValidationResult validate_csr(const M& a) {
  ValidationResult r;
  if (a.rows < 0 || a.cols < 0) {
    r.add("dims/nonnegative", "rows=" + std::to_string(a.rows) +
                                  " cols=" + std::to_string(a.cols));
    return r;
  }
  if (a.col_idx.size() != a.vals.size()) {
    r.add("arrays/parallel", "col_idx size " + std::to_string(a.col_idx.size()) +
                                 " != vals size " + std::to_string(a.vals.size()));
    return r;
  }
  if (!detail::check_ptr_array(r, a.row_ptr,
                               static_cast<std::size_t>(a.rows) + 1,
                               static_cast<std::int64_t>(a.col_idx.size()),
                               "row_ptr")) {
    return r;
  }
  if (!detail::check_index_range(r, a.col_idx, a.cols, "col_idx")) return r;
  for (index_t row = 0; row < a.rows; ++row) {
    for (offset_t i = a.row_ptr[row] + 1; i < a.row_ptr[row + 1]; ++i) {
      if (a.col_idx[i] <= a.col_idx[i - 1]) {
        r.add("col_idx/sorted",
              "row " + std::to_string(row) +
                  " columns not strictly increasing at nnz position " +
                  std::to_string(i));
        return r;
      }
    }
  }
  return r;
}

/// Plain sparse vector: sorted unique in-range indices, no stored zeros.
template <typename V>
ValidationResult validate_sparse_vec(const V& x) {
  ValidationResult r;
  if (x.n < 0) {
    r.add("dims/nonnegative", "n=" + std::to_string(x.n));
    return r;
  }
  if (x.idx.size() != x.vals.size()) {
    r.add("arrays/parallel", "idx size " + std::to_string(x.idx.size()) +
                                 " != vals size " + std::to_string(x.vals.size()));
    return r;
  }
  if (!detail::check_index_range(r, x.idx, x.n, "idx")) return r;
  for (std::size_t i = 1; i < x.idx.size(); ++i) {
    if (x.idx[i] <= x.idx[i - 1]) {
      r.add("idx/sorted-unique",
            "indices not strictly increasing at position " + std::to_string(i));
      return r;
    }
  }
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    if (x.vals[i] == decltype(x.vals[i] * 0){}) {
      r.add("vals/no-stored-zeros",
            "explicit zero stored at position " + std::to_string(i));
      return r;
    }
  }
  return r;
}

/// Tiled sparse vector (paper Fig. 3): slot map covers ceil(n/nt) tiles,
/// compact slots form a permutation of the stored tile blocks, the tile
/// list names each slot's tile in strictly increasing order, the last
/// partial tile is zero-padded past n, and nnz matches the stored payload.
template <typename V>
ValidationResult validate_tile_vector(const V& v) {
  ValidationResult r;
  if (v.n < 0) {
    r.add("dims/nonnegative", "n=" + std::to_string(v.n));
    return r;
  }
  if (v.nt < 1 || v.nt > 256) {
    r.add("nt/range", "nt=" + std::to_string(v.nt) + ", valid range [1, 256]");
    return r;
  }
  const auto tiles = static_cast<std::size_t>(ceil_div(v.n, v.nt));
  if (v.x_ptr.size() != tiles) {
    r.add("x_ptr/length", "expected " + std::to_string(tiles) +
                              " slots, got " + std::to_string(v.x_ptr.size()));
    return r;
  }
  if (v.x_tile.size() % static_cast<std::size_t>(v.nt) != 0) {
    r.add("x_tile/length",
          "payload size " + std::to_string(v.x_tile.size()) +
              " is not a multiple of nt=" + std::to_string(v.nt));
    return r;
  }
  const auto slots =
      static_cast<index_t>(v.x_tile.size() / static_cast<std::size_t>(v.nt));
  std::vector<unsigned char> seen(static_cast<std::size_t>(slots), 0);
  index_t used = 0;
  for (std::size_t t = 0; t < v.x_ptr.size(); ++t) {
    const index_t p = v.x_ptr[t];
    if (p == kEmptyTile) continue;
    if (p < 0 || p >= slots) {
      r.add("x_ptr/range", "tile " + std::to_string(t) + " maps to slot " +
                               std::to_string(p) + ", valid range [0, " +
                               std::to_string(slots) + ")");
      return r;
    }
    if (seen[static_cast<std::size_t>(p)]) {
      r.add("x_ptr/unique-slots",
            "slot " + std::to_string(p) + " referenced by multiple tiles");
      return r;
    }
    seen[static_cast<std::size_t>(p)] = 1;
    ++used;
  }
  if (used != slots) {
    r.add("x_ptr/slot-coverage",
          std::to_string(slots) + " stored tile blocks but only " +
              std::to_string(used) + " referenced");
    return r;
  }
  // The tile list inverts x_ptr: one entry per slot, in tile order.
  if (v.tiles.size() != static_cast<std::size_t>(slots)) {
    r.add("tiles/length", "expected " + std::to_string(slots) +
                              " tile ids, got " +
                              std::to_string(v.tiles.size()));
    return r;
  }
  for (std::size_t k = 1; k < v.tiles.size(); ++k) {
    if (v.tiles[k] <= v.tiles[k - 1]) {
      r.add("tiles/sorted", "tile ids not strictly increasing at slot " +
                                std::to_string(k));
      return r;
    }
  }
  for (std::size_t k = 0; k < v.tiles.size(); ++k) {
    const index_t t = v.tiles[k];
    if (t < 0 || static_cast<std::size_t>(t) >= tiles ||
        v.x_ptr[static_cast<std::size_t>(t)] != static_cast<index_t>(k)) {
      r.add("tiles/agreement", "slot " + std::to_string(k) + " lists tile " +
                                   std::to_string(t) +
                                   ", whose x_ptr entry is not that slot");
      return r;
    }
  }
  // Zero padding past n in the last partial tile.
  if (v.n % v.nt != 0 && !v.x_ptr.empty() && v.x_ptr.back() != kEmptyTile) {
    const index_t slot = v.x_ptr.back();
    for (index_t j = v.n % v.nt; j < v.nt; ++j) {
      if (!(v.x_tile[static_cast<std::size_t>(slot) * v.nt + j] ==
            decltype(v.x_tile[0] * 0){})) {
        r.add("x_tile/padding",
              "nonzero padding past n in the last partial tile at local "
              "position " + std::to_string(j));
        return r;
      }
    }
  }
  std::size_t nonzeros = 0;
  for (const auto& val : v.x_tile) {
    if (!(val == decltype(v.x_tile[0] * 0){})) ++nonzeros;
  }
  if (static_cast<std::int64_t>(nonzeros) != static_cast<std::int64_t>(v.nnz)) {
    r.add("nnz/agreement", "nnz field is " + std::to_string(v.nnz) + " but " +
                               std::to_string(nonzeros) +
                               " nonzeros are stored");
  }
  return r;
}

/// Block of k tiled vectors (core/tile_spmspm.hpp operand): slot map over
/// ceil(n/nt) tiles as in validate_tile_vector, one active lane-bitmask
/// word per slot whose non-emptiness must agree with the slot map, no lane
/// bits at or above k, and a lane-interleaved payload of exactly
/// slots*nt*k values.
template <typename B>
ValidationResult validate_tile_vector_block(const B& b) {
  ValidationResult r;
  if (b.n < 0) {
    r.add("dims/nonnegative", "n=" + std::to_string(b.n));
    return r;
  }
  if (b.nt < 1 || b.nt > 256) {
    r.add("nt/range", "nt=" + std::to_string(b.nt) + ", valid range [1, 256]");
    return r;
  }
  if (b.k < 0 || b.k > 64) {
    r.add("k/range", "k=" + std::to_string(b.k) + ", valid range [0, 64]");
    return r;
  }
  const auto tiles =
      b.k == 0 ? std::size_t{0} : static_cast<std::size_t>(ceil_div(b.n, b.nt));
  if (b.x_ptr.size() != tiles || b.active.size() != tiles) {
    r.add("slots/length",
          "expected " + std::to_string(tiles) + " tile slots, got x_ptr=" +
              std::to_string(b.x_ptr.size()) + " active=" +
              std::to_string(b.active.size()));
    return r;
  }
  const std::size_t stride =
      static_cast<std::size_t>(b.nt) * static_cast<std::size_t>(b.k);
  if (stride != 0 && b.x_tile.size() % stride != 0) {
    r.add("x_tile/length",
          "payload size " + std::to_string(b.x_tile.size()) +
              " is not a multiple of nt*k=" + std::to_string(stride));
    return r;
  }
  const auto slots =
      static_cast<index_t>(stride == 0 ? 0 : b.x_tile.size() / stride);
  std::vector<unsigned char> seen(static_cast<std::size_t>(slots), 0);
  index_t used = 0;
  for (std::size_t t = 0; t < b.x_ptr.size(); ++t) {
    const index_t p = b.x_ptr[t];
    const std::uint64_t word = b.active[t];
    if (b.k < 64 && (word >> b.k) != 0) {
      r.add("active/lane-range", "tile " + std::to_string(t) +
                                     " has active bits at or above k=" +
                                     std::to_string(b.k));
      return r;
    }
    if ((p == kEmptyTile) != (word == 0)) {
      r.add("active/slot-agreement",
            "tile " + std::to_string(t) +
                ": empty-slot sentinel and active word disagree");
      return r;
    }
    if (p == kEmptyTile) continue;
    if (p < 0 || p >= slots) {
      r.add("x_ptr/range", "tile " + std::to_string(t) + " maps to slot " +
                               std::to_string(p) + ", valid range [0, " +
                               std::to_string(slots) + ")");
      return r;
    }
    if (seen[static_cast<std::size_t>(p)]) {
      r.add("x_ptr/unique-slots",
            "slot " + std::to_string(p) + " referenced by multiple tiles");
      return r;
    }
    seen[static_cast<std::size_t>(p)] = 1;
    ++used;
  }
  if (used != slots) {
    r.add("x_ptr/slot-coverage",
          std::to_string(slots) + " stored tile blocks but only " +
              std::to_string(used) + " referenced");
  }
  return r;
}

/// Numeric tiled matrix (paper §3.2.1). Gates: grid shape; tile-grid CSR;
/// intra-tile payload (monotone local row pointers summing to each tile's
/// range, local columns sorted, in range, and clipped to the matrix edge);
/// extracted COO (in-range, row-major sorted, dims matching); then the
/// derived arrays. The run lists and tile strategies are an invariant
/// every multiply relies on (from_csr builds them and the tile-file mapper
/// requires them) and must agree with the payload exactly; the side
/// indices and scheduling chunks are checked whenever they are present.
template <typename TM>
ValidationResult validate_tile_matrix(const TM& m) {
  using std::to_string;
  ValidationResult r;
  // Gate 0: placement bookkeeping. A matrix whose arrays are views (arena
  // or mapped file) must hold the owner keeping them alive.
  if (m.placed != Placement::kHeap && m.storage == nullptr) {
    r.add("placement/storage-owner",
          std::string(placement_name(m.placed)) +
              " placement with no storage owner");
    return r;
  }
  // Gate 1: shape scalars.
  if (m.rows < 0 || m.cols < 0) {
    r.add("dims/nonnegative",
          "rows=" + to_string(m.rows) + " cols=" + to_string(m.cols));
    return r;
  }
  if (m.nt < 1 || m.nt > 256) {
    r.add("nt/range", "nt=" + to_string(m.nt) + ", valid range [1, 256]");
    return r;
  }
  if (m.tile_rows != ceil_div(m.rows, m.nt) ||
      m.tile_cols != ceil_div(m.cols, m.nt)) {
    r.add("grid/dims", "tile grid " + to_string(m.tile_rows) + "x" +
                           to_string(m.tile_cols) + " does not match ceil(" +
                           to_string(m.rows) + "/" + to_string(m.nt) + ") x ceil(" +
                           to_string(m.cols) + "/" + to_string(m.nt) + ")");
    return r;
  }

  // Gate 2: CSR over the tile grid and the flat payload arrays.
  const auto ntiles = static_cast<std::int64_t>(m.tile_col_id.size());
  if (!detail::check_ptr_array(r, m.tile_row_ptr,
                               static_cast<std::size_t>(m.tile_rows) + 1,
                               ntiles, "tile_row_ptr")) {
    return r;
  }
  if (!detail::check_index_range(r, m.tile_col_id, m.tile_cols, "tile_col_id")) {
    return r;
  }
  for (index_t tr = 0; tr < m.tile_rows; ++tr) {
    for (offset_t t = m.tile_row_ptr[tr] + 1; t < m.tile_row_ptr[tr + 1]; ++t) {
      if (m.tile_col_id[t] <= m.tile_col_id[t - 1]) {
        r.add("tile_col_id/sorted",
              "tile row " + to_string(tr) +
                  " column ids not strictly increasing at tile " + to_string(t));
        return r;
      }
    }
  }
  if (m.local_col.size() != m.vals.size()) {
    r.add("payload/parallel", "local_col size " + to_string(m.local_col.size()) +
                                  " != vals size " + to_string(m.vals.size()));
    return r;
  }
  if (!detail::check_ptr_array(r, m.tile_nnz_ptr,
                               static_cast<std::size_t>(ntiles) + 1,
                               static_cast<std::int64_t>(m.vals.size()),
                               "tile_nnz_ptr")) {
    return r;
  }
  if (m.intra_row_ptr.size() !=
      static_cast<std::size_t>(ntiles) * (static_cast<std::size_t>(m.nt) + 1)) {
    r.add("intra_row_ptr/length",
          "expected " + to_string(ntiles) + " * (nt+1) = " +
              to_string(static_cast<std::size_t>(ntiles) *
                        (static_cast<std::size_t>(m.nt) + 1)) +
              " entries, got " + to_string(m.intra_row_ptr.size()));
    return r;
  }

  // Gate 3: intra-tile payload.
  for (index_t tr = 0; tr < m.tile_rows; ++tr) {
    const index_t row_limit = std::min<index_t>(m.nt, m.rows - tr * m.nt);
    for (offset_t t = m.tile_row_ptr[tr]; t < m.tile_row_ptr[tr + 1]; ++t) {
      const index_t tc = m.tile_col_id[t];
      const index_t col_limit = std::min<index_t>(m.nt, m.cols - tc * m.nt);
      const auto* p = &m.intra_row_ptr[static_cast<std::size_t>(t) * (m.nt + 1)];
      const offset_t tile_nnz = m.tile_nnz_ptr[t + 1] - m.tile_nnz_ptr[t];
      if (p[0] != 0) {
        r.add("intra_row_ptr/origin",
              "tile " + to_string(t) + " local row pointer starts at " +
                  to_string(p[0]));
        return r;
      }
      for (index_t lr = 0; lr < m.nt; ++lr) {
        if (p[lr + 1] < p[lr]) {
          r.add("intra_row_ptr/monotone",
                "tile " + to_string(t) + " local row pointer decreases at row " +
                    to_string(lr));
          return r;
        }
      }
      if (static_cast<offset_t>(p[m.nt]) != tile_nnz) {
        r.add("intra_row_ptr/total",
              "tile " + to_string(t) + " local total " + to_string(p[m.nt]) +
                  " != tile_nnz_ptr range " + to_string(tile_nnz));
        return r;
      }
      for (index_t lr = row_limit; lr < m.nt; ++lr) {
        if (p[lr + 1] != p[lr]) {
          r.add("intra_row_ptr/row-clip",
                "tile " + to_string(t) + " stores entries in local row " +
                    to_string(lr) + " beyond the matrix edge (rows=" +
                    to_string(m.rows) + ")");
          return r;
        }
      }
      const offset_t base = m.tile_nnz_ptr[t];
      for (index_t lr = 0; lr < row_limit; ++lr) {
        for (offset_t i = p[lr]; i < p[lr + 1]; ++i) {
          const index_t lc = m.local_col[base + i];
          if (lc >= col_limit) {
            r.add("local_col/range",
                  "tile " + to_string(t) + " local column " + to_string(lc) +
                      " exceeds limit " + to_string(col_limit) +
                      " (nt=" + to_string(m.nt) + ", cols=" + to_string(m.cols) +
                      ")");
            return r;
          }
          if (i > p[lr] && lc <= m.local_col[base + i - 1]) {
            r.add("local_col/sorted",
                  "tile " + to_string(t) + " local row " + to_string(lr) +
                      " columns not strictly increasing");
            return r;
          }
        }
      }
    }
  }

  // Gate 4: extracted COO — dims match, indices in range, row-major sorted
  // (side_row_ptr ranges index the extracted arrays directly).
  if (m.extracted.rows != m.rows || m.extracted.cols != m.cols) {
    r.add("extracted/dims",
          "extracted COO is " + to_string(m.extracted.rows) + "x" +
              to_string(m.extracted.cols) + ", matrix is " + to_string(m.rows) +
              "x" + to_string(m.cols));
    return r;
  }
  r.merge(validate_coo(m.extracted), "extracted.");
  if (!r.ok()) return r;
  for (index_t i = 1; i < m.extracted.nnz(); ++i) {
    const bool row_order = m.extracted.row_idx[i] > m.extracted.row_idx[i - 1];
    const bool col_order = m.extracted.row_idx[i] == m.extracted.row_idx[i - 1] &&
                           m.extracted.col_idx[i] > m.extracted.col_idx[i - 1];
    if (!row_order && !col_order) {
      r.add("extracted/row-major",
            "extracted entries not strictly row-major sorted at position " +
                to_string(i));
      return r;
    }
  }

  // Gate 5: derived arrays.
  const auto extracted_nnz = static_cast<std::int64_t>(m.extracted.nnz());
  if (!m.side_col_ptr.empty()) {
    if (!detail::check_ptr_array(r, m.side_col_ptr,
                                 static_cast<std::size_t>(m.cols) + 1,
                                 extracted_nnz, "side_col_ptr")) {
      return r;
    }
    if (m.side_row_idx.size() != static_cast<std::size_t>(extracted_nnz) ||
        m.side_vals.size() != static_cast<std::size_t>(extracted_nnz)) {
      r.add("side/parallel",
            "side_row_idx/side_vals sizes do not match extracted nnz " +
                to_string(extracted_nnz));
      return r;
    }
    // Replay the stable counting sort that built the side index and demand
    // bitwise agreement (extracted-COO consistency).
    std::vector<offset_t> expect_ptr(static_cast<std::size_t>(m.cols) + 1, 0);
    for (index_t c : m.extracted.col_idx) ++expect_ptr[c + 1];
    for (index_t c = 0; c < m.cols; ++c) expect_ptr[c + 1] += expect_ptr[c];
    for (index_t c = 0; c <= m.cols; ++c) {
      if (m.side_col_ptr[c] != expect_ptr[c]) {
        r.add("side_col_ptr/agreement",
              "column pointer disagrees with extracted COO at column " +
                  to_string(c));
        return r;
      }
    }
    std::vector<offset_t> cursor(expect_ptr.begin(), expect_ptr.end() - 1);
    for (index_t i = 0; i < m.extracted.nnz(); ++i) {
      const offset_t pos = cursor[m.extracted.col_idx[i]]++;
      if (m.side_row_idx[pos] != m.extracted.row_idx[i] ||
          !detail::bit_equal(m.side_vals[pos], m.extracted.vals[i])) {
        r.add("side/agreement",
              "side index entry " + to_string(pos) +
                  " disagrees with extracted COO entry " + to_string(i));
        return r;
      }
    }
  }
  if (!m.side_row_ptr.empty()) {
    if (!detail::check_ptr_array(r, m.side_row_ptr,
                                 static_cast<std::size_t>(m.rows) + 1,
                                 extracted_nnz, "side_row_ptr")) {
      return r;
    }
    std::vector<offset_t> expect_ptr(static_cast<std::size_t>(m.rows) + 1, 0);
    for (index_t row : m.extracted.row_idx) ++expect_ptr[row + 1];
    for (index_t row = 0; row < m.rows; ++row) {
      expect_ptr[row + 1] += expect_ptr[row];
    }
    for (index_t row = 0; row <= m.rows; ++row) {
      if (m.side_row_ptr[row] != expect_ptr[row]) {
        r.add("side_row_ptr/agreement",
              "row pointer disagrees with extracted COO at row " +
                  to_string(row));
        return r;
      }
    }
  }
  // Run lists, required.
  if (m.row_runs.size() % 3 != 0) {
    r.add("row_runs/length", "run payload size " +
                                 to_string(m.row_runs.size()) +
                                 " is not a multiple of 3");
    return r;
  }
  if (!detail::check_ptr_array(r, m.run_ptr,
                               static_cast<std::size_t>(ntiles) + 1,
                               static_cast<std::int64_t>(m.row_runs.size() / 3),
                               "run_ptr")) {
    return r;
  }
  if (m.tile_strategy.size() != static_cast<std::size_t>(ntiles)) {
    r.add("tile_strategy/length",
          "expected " + to_string(ntiles) + " strategy bytes, got " +
              to_string(m.tile_strategy.size()));
    return r;
  }
  for (std::int64_t t = 0; t < ntiles; ++t) {
    if (m.tile_strategy[t] > TM::kRunTiny) {
      r.add("tile_strategy/range",
            "tile " + to_string(t) + " has unknown strategy byte " +
                to_string(static_cast<int>(m.tile_strategy[t])));
      return r;
    }
  }
  // Exact agreement of the run list with the intra-tile payload: one run
  // per non-empty local row, count and contiguity recomputed.
  for (std::int64_t t = 0; t < ntiles; ++t) {
    const auto* p = &m.intra_row_ptr[static_cast<std::size_t>(t) * (m.nt + 1)];
    const offset_t base = m.tile_nnz_ptr[t];
    offset_t run = m.run_ptr[t];
    for (index_t lr = 0; lr < m.nt; ++lr) {
      const int c = p[lr + 1] - p[lr];
      if (c <= 0) continue;
      if (run >= m.run_ptr[t + 1]) {
        r.add("row_runs/agreement",
              "tile " + to_string(t) + " has fewer runs than non-empty rows");
        return r;
      }
      const std::uint8_t* triple =
          &m.row_runs[static_cast<std::size_t>(run) * 3];
      const std::uint8_t* rc = &m.local_col[base + p[lr]];
      std::uint8_t contig = 1;
      for (int i = 1; i < c; ++i) {
        if (rc[i] != static_cast<std::uint8_t>(rc[0] + i)) {
          contig = 0;
          break;
        }
      }
      if (triple[0] != lr || triple[1] != c - 1 || triple[2] != contig) {
        r.add("row_runs/agreement",
              "tile " + to_string(t) + " run " + to_string(run) +
                  " disagrees with the intra-tile payload at local row " +
                  to_string(lr));
        return r;
      }
      ++run;
    }
    if (run != m.run_ptr[t + 1]) {
      r.add("row_runs/agreement",
            "tile " + to_string(t) + " has more runs than non-empty rows");
      return r;
    }
  }
  detail::check_row_chunks(r, m.row_chunk_ptr, m.tile_rows, "row_chunk_ptr");
  return r;
}

/// Packed-byte tiled matrix (fixed nt = 16): grid CSR checks plus nibble
/// coordinates clipped to the matrix edge in the last tile row/column.
template <typename PM>
ValidationResult validate_packed_tile_matrix(const PM& m) {
  using std::to_string;
  ValidationResult r;
  constexpr index_t nt = PM::kNt;
  if (m.rows < 0 || m.cols < 0) {
    r.add("dims/nonnegative",
          "rows=" + to_string(m.rows) + " cols=" + to_string(m.cols));
    return r;
  }
  if (m.tile_rows != ceil_div<index_t>(m.rows, nt) ||
      m.tile_cols != ceil_div<index_t>(m.cols, nt)) {
    r.add("grid/dims", "tile grid " + to_string(m.tile_rows) + "x" +
                           to_string(m.tile_cols) +
                           " does not match ceil(dims / 16)");
    return r;
  }
  const auto ntiles = static_cast<std::int64_t>(m.tile_col_id.size());
  if (!detail::check_ptr_array(r, m.tile_row_ptr,
                               static_cast<std::size_t>(m.tile_rows) + 1,
                               ntiles, "tile_row_ptr")) {
    return r;
  }
  if (!detail::check_index_range(r, m.tile_col_id, m.tile_cols, "tile_col_id")) {
    return r;
  }
  for (index_t tr = 0; tr < m.tile_rows; ++tr) {
    for (offset_t t = m.tile_row_ptr[tr] + 1; t < m.tile_row_ptr[tr + 1]; ++t) {
      if (m.tile_col_id[t] <= m.tile_col_id[t - 1]) {
        r.add("tile_col_id/sorted",
              "tile row " + to_string(tr) +
                  " column ids not strictly increasing at tile " + to_string(t));
        return r;
      }
    }
  }
  if (m.packed.size() != m.vals.size()) {
    r.add("payload/parallel", "packed size " + to_string(m.packed.size()) +
                                  " != vals size " + to_string(m.vals.size()));
    return r;
  }
  if (!detail::check_ptr_array(r, m.tile_nnz_ptr,
                               static_cast<std::size_t>(ntiles) + 1,
                               static_cast<std::int64_t>(m.vals.size()),
                               "tile_nnz_ptr")) {
    return r;
  }
  for (index_t tr = 0; tr < m.tile_rows; ++tr) {
    const index_t row_limit = std::min<index_t>(nt, m.rows - tr * nt);
    for (offset_t t = m.tile_row_ptr[tr]; t < m.tile_row_ptr[tr + 1]; ++t) {
      const index_t tc = m.tile_col_id[t];
      const index_t col_limit = std::min<index_t>(nt, m.cols - tc * nt);
      for (offset_t i = m.tile_nnz_ptr[t]; i < m.tile_nnz_ptr[t + 1]; ++i) {
        const index_t lr = PM::unpack_row(m.packed[i]);
        const index_t lc = PM::unpack_col(m.packed[i]);
        if (lr >= row_limit || lc >= col_limit) {
          r.add("packed/range",
                "tile " + to_string(t) + " entry " + to_string(i) +
                    " local coordinate (" + to_string(lr) + ", " + to_string(lc) +
                    ") exceeds limits (" + to_string(row_limit) + ", " +
                    to_string(col_limit) + ")");
          return r;
        }
      }
    }
  }
  detail::check_row_chunks(r, m.row_chunk_ptr, m.tile_rows, "row_chunk_ptr");
  return r;
}

/// Bitmask tiled adjacency structure (paper §3.2.3): both tile-grid forms
/// checked as CSR/CSC pairs, mask words clipped to the matrix edge (no
/// set bit may fall outside [0, n) in either dimension), occupancy
/// summaries recomputed, mirror indices (shared-mask mode) or transposed
/// masks (materialized mode) verified against the CSR form, side edge
/// list bounds, the side summary (when present) recomputed from side_ptr,
/// and the total edge count tied back to mask popcounts.
template <typename G>
ValidationResult validate_bit_tile_graph(const G& g) {
  using std::to_string;
  using Word = typename G::Word;
  constexpr index_t NT = static_cast<index_t>(sizeof(Word)) * 8;
  ValidationResult r;
  // Placement bookkeeping first (see validate_tile_matrix): view-backed
  // arrays need their storage owner alive.
  if (g.placed != Placement::kHeap && g.storage == nullptr) {
    r.add("placement/storage-owner",
          std::string(placement_name(g.placed)) +
              " placement with no storage owner");
    return r;
  }
  if (g.n < 0) {
    r.add("dims/nonnegative", "n=" + to_string(g.n));
    return r;
  }
  if (g.tile_n != ceil_div<index_t>(g.n, NT)) {
    r.add("grid/dims", "tile_n " + to_string(g.tile_n) + " != ceil(" +
                           to_string(g.n) + " / " + to_string(NT) + ")");
    return r;
  }
  const auto ntiles = static_cast<std::int64_t>(g.csr_tile_col.size());
  if (!detail::check_ptr_array(r, g.csr_tile_ptr,
                               static_cast<std::size_t>(g.tile_n) + 1, ntiles,
                               "csr_tile_ptr")) {
    return r;
  }
  if (!detail::check_index_range(r, g.csr_tile_col, g.tile_n, "csr_tile_col")) {
    return r;
  }
  for (index_t tr = 0; tr < g.tile_n; ++tr) {
    for (offset_t t = g.csr_tile_ptr[tr] + 1; t < g.csr_tile_ptr[tr + 1]; ++t) {
      if (g.csr_tile_col[t] <= g.csr_tile_col[t - 1]) {
        r.add("csr_tile_col/sorted",
              "tile row " + to_string(tr) +
                  " column ids not strictly increasing at tile " + to_string(t));
        return r;
      }
    }
  }
  if (g.csr_masks.size() != static_cast<std::size_t>(ntiles) * NT) {
    r.add("csr_masks/length", "expected " + to_string(ntiles) + " * " +
                                  to_string(NT) + " words, got " +
                                  to_string(g.csr_masks.size()));
    return r;
  }
  // Mask word widths: bits past the matrix edge must be clear. Bit lc is
  // msb_bit(lc), so for a column limit L < NT the low NT-L bits are the
  // out-of-range positions.
  std::int64_t mask_edges = 0;
  for (index_t tr = 0; tr < g.tile_n; ++tr) {
    const index_t row_limit = std::min<index_t>(NT, g.n - tr * NT);
    for (offset_t t = g.csr_tile_ptr[tr]; t < g.csr_tile_ptr[tr + 1]; ++t) {
      const index_t tc = g.csr_tile_col[t];
      const index_t col_limit = std::min<index_t>(NT, g.n - tc * NT);
      const Word invalid =
          col_limit < NT
              ? static_cast<Word>(static_cast<Word>(~Word{0}) >> col_limit)
              : Word{0};
      for (index_t lr = 0; lr < NT; ++lr) {
        const Word w = g.csr_masks[static_cast<std::size_t>(t) * NT + lr];
        if (lr >= row_limit && w != 0) {
          r.add("csr_masks/row-clip",
                "tile " + to_string(t) + " has bits in local row " +
                    to_string(lr) + " beyond the matrix edge (n=" +
                    to_string(g.n) + ")");
          return r;
        }
        if ((w & invalid) != 0) {
          r.add("csr_masks/col-width",
                "tile " + to_string(t) + " local row " + to_string(lr) +
                    " has bits past the column limit " + to_string(col_limit));
          return r;
        }
        mask_edges += popcount(w);
      }
    }
  }
  if (g.csr_row_summary.size() != static_cast<std::size_t>(ntiles)) {
    r.add("csr_row_summary/length",
          "expected " + to_string(ntiles) + " summary words, got " +
              to_string(g.csr_row_summary.size()));
    return r;
  }
  for (std::int64_t t = 0; t < ntiles; ++t) {
    Word expect{0};
    for (index_t lr = 0; lr < NT; ++lr) {
      if (g.csr_masks[static_cast<std::size_t>(t) * NT + lr] != 0) {
        expect |= msb_bit<Word>(lr);
      }
    }
    if (g.csr_row_summary[t] != expect) {
      r.add("csr_row_summary/agreement",
            "summary word of tile " + to_string(t) +
                " disagrees with its mask block");
      return r;
    }
  }

  // CSC tile form: a transpose of the CSR tile set.
  if (!detail::check_ptr_array(r, g.csc_tile_ptr,
                               static_cast<std::size_t>(g.tile_n) + 1, ntiles,
                               "csc_tile_ptr")) {
    return r;
  }
  if (g.csc_tile_row.size() != static_cast<std::size_t>(ntiles)) {
    r.add("csc_tile_row/length",
          "expected " + to_string(ntiles) + " entries, got " +
              to_string(g.csc_tile_row.size()));
    return r;
  }
  if (!detail::check_index_range(r, g.csc_tile_row, g.tile_n, "csc_tile_row")) {
    return r;
  }
  {
    std::vector<offset_t> expect_ptr(static_cast<std::size_t>(g.tile_n) + 1, 0);
    for (index_t tc : g.csr_tile_col) ++expect_ptr[tc + 1];
    for (index_t c = 0; c < g.tile_n; ++c) expect_ptr[c + 1] += expect_ptr[c];
    for (index_t c = 0; c <= g.tile_n; ++c) {
      if (g.csc_tile_ptr[c] != expect_ptr[c]) {
        r.add("csc_tile_ptr/agreement",
              "CSC tile pointer disagrees with the CSR tile set at column " +
                  to_string(c));
        return r;
      }
    }
  }
  for (index_t tc = 0; tc < g.tile_n; ++tc) {
    for (offset_t u = g.csc_tile_ptr[tc] + 1; u < g.csc_tile_ptr[tc + 1]; ++u) {
      if (g.csc_tile_row[u] <= g.csc_tile_row[u - 1]) {
        r.add("csc_tile_row/sorted",
              "tile column " + to_string(tc) +
                  " row ids not strictly increasing at tile " + to_string(u));
        return r;
      }
    }
  }
  // Locates the CSR-order index of grid tile (tr, tc), or -1.
  const auto find_csr_tile = [&](index_t tr, index_t tc) -> offset_t {
    const auto* begin = g.csr_tile_col.data() + g.csr_tile_ptr[tr];
    const auto* end = g.csr_tile_col.data() + g.csr_tile_ptr[tr + 1];
    const auto* it = std::lower_bound(begin, end, tc);
    if (it == end || *it != tc) return -1;
    return g.csr_tile_ptr[tr] + (it - begin);
  };
  if (g.shared_masks) {
    if (!g.csc_masks.empty()) {
      r.add("csc_masks/shared-empty",
            "shared-mask mode must not materialize CSC masks");
      return r;
    }
    if (g.csc_mirror.size() != static_cast<std::size_t>(ntiles)) {
      r.add("csc_mirror/length",
            "expected " + to_string(ntiles) + " mirror indices, got " +
                to_string(g.csc_mirror.size()));
      return r;
    }
    for (index_t tc = 0; tc < g.tile_n; ++tc) {
      for (offset_t u = g.csc_tile_ptr[tc]; u < g.csc_tile_ptr[tc + 1]; ++u) {
        const index_t tr = g.csc_tile_row[u];
        const offset_t mirror = g.csc_mirror[u];
        // CSC tile (tr, tc) must alias the CSR masks of grid tile (tc, tr).
        if (mirror < 0 || mirror >= ntiles ||
            mirror != find_csr_tile(tc, tr)) {
          r.add("csc_mirror/agreement",
                "CSC tile " + to_string(u) + " mirror index " +
                    to_string(mirror) + " does not reference grid tile (" +
                    to_string(tc) + ", " + to_string(tr) + ")");
          return r;
        }
      }
    }
  } else {
    if (!g.csc_mirror.empty()) {
      r.add("csc_mirror/materialized-empty",
            "materialized-mask mode must not carry mirror indices");
      return r;
    }
    if (g.csc_masks.size() != static_cast<std::size_t>(ntiles) * NT) {
      r.add("csc_masks/length", "expected " + to_string(ntiles) + " * " +
                                    to_string(NT) + " words, got " +
                                    to_string(g.csc_masks.size()));
      return r;
    }
    // Each CSC mask block must be the exact bit transpose of the same grid
    // tile's CSR block.
    std::vector<Word> expect(static_cast<std::size_t>(NT));
    for (index_t tc = 0; tc < g.tile_n; ++tc) {
      for (offset_t u = g.csc_tile_ptr[tc]; u < g.csc_tile_ptr[tc + 1]; ++u) {
        const index_t tr = g.csc_tile_row[u];
        const offset_t t = find_csr_tile(tr, tc);
        if (t < 0) {
          r.add("csc/tile-set-agreement",
                "CSC tile (" + to_string(tr) + ", " + to_string(tc) +
                    ") has no CSR counterpart");
          return r;
        }
        std::fill(expect.begin(), expect.end(), Word{0});
        for (index_t lr = 0; lr < NT; ++lr) {
          for_each_set_bit(g.csr_masks[static_cast<std::size_t>(t) * NT + lr],
                           [&](int lc) { expect[lc] |= msb_bit<Word>(lr); });
        }
        if (std::memcmp(expect.data(),
                        &g.csc_masks[static_cast<std::size_t>(u) * NT],
                        sizeof(Word) * NT) != 0) {
          r.add("csc_masks/transpose-agreement",
                "CSC mask block of tile (" + to_string(tr) + ", " +
                    to_string(tc) + ") is not the transpose of its CSR block");
          return r;
        }
      }
    }
  }
  if (g.csc_col_summary.size() != static_cast<std::size_t>(ntiles)) {
    r.add("csc_col_summary/length",
          "expected " + to_string(ntiles) + " summary words, got " +
              to_string(g.csc_col_summary.size()));
    return r;
  }
  for (std::int64_t u = 0; u < ntiles; ++u) {
    const Word* block = g.csc_mask(static_cast<offset_t>(u));
    Word expect_summary{0};
    for (index_t lc = 0; lc < NT; ++lc) {
      if (block[lc] != 0) expect_summary |= msb_bit<Word>(lc);
    }
    if (g.csc_col_summary[u] != expect_summary) {
      r.add("csc_col_summary/agreement",
            "summary word of CSC tile " + to_string(u) +
                " disagrees with its mask block");
      return r;
    }
  }

  // Scheduling metadata: the weighted tile-row chunk boundaries follow
  // the same optional contract as TileMatrix::row_chunk_ptr, and the
  // per-column CSC weights must be absent or cover every tile column
  // (the Push-CSC frontier chunking indexes them by slot id).
  detail::check_row_chunks(r, g.csr_chunk_ptr, g.tile_n, "csr_chunk_ptr");
  if (!r.ok()) return r;
  if (!g.csc_col_weight.empty() &&
      g.csc_col_weight.size() != static_cast<std::size_t>(g.tile_n)) {
    r.add("csc_col_weight/length",
          "expected " + to_string(g.tile_n) + " column weights, got " +
              to_string(g.csc_col_weight.size()));
    return r;
  }

  // Side edge list and the terminal edge count.
  if (!detail::check_ptr_array(r, g.side_ptr,
                               static_cast<std::size_t>(g.n) + 1,
                               static_cast<std::int64_t>(g.side_dst.size()),
                               "side_ptr")) {
    return r;
  }
  if (!detail::check_index_range(r, g.side_dst, g.n, "side_dst")) return r;
  if (!g.side_summary.empty()) {
    if (g.side_summary.size() != static_cast<std::size_t>(g.tile_n)) {
      r.add("side_summary/length",
            "expected " + to_string(g.tile_n) + " summary words, got " +
                to_string(g.side_summary.size()));
      return r;
    }
    for (index_t s = 0; s < g.tile_n; ++s) {
      Word expect_summary{0};
      for (index_t b = 0; b < NT && s * NT + b < g.n; ++b) {
        const index_t u = s * NT + b;
        if (g.side_ptr[u + 1] > g.side_ptr[u]) {
          expect_summary |= msb_bit<Word>(b);
        }
      }
      if (g.side_summary[s] != expect_summary) {
        r.add("side_summary/agreement",
              "side summary word " + to_string(s) +
                  " disagrees with side_ptr");
        return r;
      }
    }
  }
  const std::int64_t total =
      mask_edges + static_cast<std::int64_t>(g.side_dst.size());
  if (static_cast<std::int64_t>(g.edges) != total) {
    r.add("edges/total", "edge count field " + to_string(g.edges) +
                             " != mask popcount + side edges = " +
                             to_string(total));
  }
  return r;
}

}  // namespace tilespmspv
