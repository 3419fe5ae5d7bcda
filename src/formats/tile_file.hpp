// Zero-copy on-disk tile container (format version 2), the library's one
// binary matrix format; Matrix Market is the text interchange format.
//
// Tiling costs several traversals (paper Fig. 11), so conversion happens
// once offline (`tilespmspv_cli convert`) and startup is a single mmap
// that binds views over the stored arrays instead of rebuilding them.
//
// Layout (host-endian — a cache format, not an interchange format):
//
//   [TileFileHeader          128 B]
//   [TileFileSection x N      32 B each]
//   [pad to 64]
//   [section 0 payload] [pad to 64]
//   [section 1 payload] [pad to 64]
//   ...
//
// Every payload starts on a 64-byte boundary, so an mmapped file can back
// the kernels' ArrayBuf views directly — no copy, no rebuild (ALL arrays
// are stored, including the derived run lists, side indexes and chunk
// boundaries). The header carries an FNV-1a hash over the payload bytes;
// the serving layer keys snapshots off it, rehashing the mapped payload
// once at admission so the key is bound to the actual bytes (a forged
// header hash must not alias another matrix's cache entry).
//
// Trust boundary: mapping validates the header, the section table and
// every section's bounds/alignment/elem_size before any view is bound.
// Full structural validation (formats/validate.hpp) and hash verification
// are optional — they re-read the whole file and would erase the point of
// a zero-copy load, but the fuzz tests and the validate CLI turn them on.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/arena.hpp"
#include "tile/bit_tile_graph.hpp"
#include "tile/tile_matrix.hpp"
#include "util/types.hpp"

namespace tilespmspv {

inline constexpr std::uint32_t kTileFileMagic = 0x464C5454;  // "TTLF"
inline constexpr std::uint32_t kTileFileVersion = 2;
inline constexpr std::uint64_t kTileFileAlign = 64;

enum class TileFileKind : std::uint32_t {
  kTileMatrix = 1,
  kBitTileGraph = 2,
};

// Header flags.
inline constexpr std::uint32_t kTileFileHasTranspose = 1u << 0;
inline constexpr std::uint32_t kTileFileSharedMasks = 1u << 1;

struct TileFileHeader {
  std::uint32_t magic = kTileFileMagic;
  std::uint32_t version = kTileFileVersion;
  std::uint32_t kind = 0;   // TileFileKind
  std::uint32_t flags = 0;
  std::int64_t rows = 0;    // graph: n
  std::int64_t cols = 0;    // graph: n
  std::int64_t nt = 0;
  std::int64_t edges = 0;   // total nnz incl. extracted part (both kinds)
  std::uint64_t payload_hash = 0;  // FNV-1a-64 over payloads, section order
  std::uint32_t section_count = 0;
  std::uint32_t reserved0 = 0;
  std::uint64_t file_bytes = 0;    // total file size, for truncation checks
  std::uint64_t reserved1[7] = {};
};
static_assert(sizeof(TileFileHeader) == 128,
              "on-disk header layout must stay fixed");

struct TileFileSection {
  std::uint32_t id = 0;
  std::uint32_t elem_size = 0;
  std::uint64_t offset = 0;  // from file start, kTileFileAlign-aligned
  std::uint64_t bytes = 0;   // == count * elem_size
  std::uint64_t count = 0;
};
static_assert(sizeof(TileFileSection) == 32,
              "on-disk section entry layout must stay fixed");

// Section ids. The transpose part of a TileMatrix file reuses the matrix
// ids with kTileFileTransposeBit set.
inline constexpr std::uint32_t kTileFileTransposeBit = 0x100;

namespace tf_section {
// TileFileKind::kTileMatrix
inline constexpr std::uint32_t kTileRowPtr = 1;
inline constexpr std::uint32_t kTileColId = 2;
inline constexpr std::uint32_t kTileNnzPtr = 3;
inline constexpr std::uint32_t kIntraRowPtr = 4;
inline constexpr std::uint32_t kLocalCol = 5;
inline constexpr std::uint32_t kVals = 6;
inline constexpr std::uint32_t kExtRowIdx = 7;
inline constexpr std::uint32_t kExtColIdx = 8;
inline constexpr std::uint32_t kExtVals = 9;
inline constexpr std::uint32_t kSideColPtr = 10;
inline constexpr std::uint32_t kSideRowIdx = 11;
inline constexpr std::uint32_t kSideVals = 12;
inline constexpr std::uint32_t kSideRowPtr = 13;
inline constexpr std::uint32_t kRowChunkPtr = 14;
inline constexpr std::uint32_t kRunPtr = 15;
inline constexpr std::uint32_t kRowRuns = 16;
inline constexpr std::uint32_t kTileStrategy = 17;
// TileFileKind::kBitTileGraph
inline constexpr std::uint32_t kCsrTilePtr = 1;
inline constexpr std::uint32_t kCsrTileCol = 2;
inline constexpr std::uint32_t kCsrMasks = 3;
inline constexpr std::uint32_t kCsrRowSummary = 4;
inline constexpr std::uint32_t kCscTilePtr = 5;
inline constexpr std::uint32_t kCscTileRow = 6;
inline constexpr std::uint32_t kCscMasks = 7;
inline constexpr std::uint32_t kCscMirror = 8;
inline constexpr std::uint32_t kCscColSummary = 9;
inline constexpr std::uint32_t kSidePtr = 10;
inline constexpr std::uint32_t kSideDst = 11;
inline constexpr std::uint32_t kCsrChunkPtr = 12;
inline constexpr std::uint32_t kCscColWeight = 13;
}  // namespace tf_section

/// FNV-1a-64 over a byte range, chainable through `seed` for streaming.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = 14695981039346656037ull);

/// Read-only memory mapping of a whole file. The mapping (and hence every
/// ArrayBuf view bound into it) stays valid while any shared_ptr to the
/// MappedFile lives — mapped structures park one in their `storage` slot.
class MappedFile {
 public:
  static std::shared_ptr<MappedFile> open(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MappedFile() = default;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  // false => heap fallback (non-mmap platforms)
  std::string path_;
};

/// Validated view over a mapped tile file: header sanity, section table in
/// bounds, and per-section alignment/size/bounds checks all pass before
/// construction returns. `find` is by id; `bind`/`copy` additionally check
/// the element size against the requested type.
class TileFileView {
 public:
  /// Throws std::runtime_error on any structural problem. When
  /// `verify_hash` is set, additionally recomputes the payload hash (full
  /// file read — defeats laziness; for validators and tests).
  static TileFileView open(std::shared_ptr<MappedFile> file,
                           bool verify_hash = false);

  const TileFileHeader& header() const { return *header_; }
  const std::shared_ptr<MappedFile>& file() const { return file_; }

  /// Section by id, or nullptr when absent.
  const TileFileSection* find(std::uint32_t id) const;

  /// Binds `buf` as a view over a required section's payload.
  template <typename T>
  void bind(std::uint32_t id, ArrayBuf<T>& buf) const {
    const TileFileSection& s = require(id, sizeof(T));
    // lint:gated(open() bounds offset+bytes to the file before any view escapes)
    buf.bind_view(reinterpret_cast<const T*>(file_->data() + s.offset),
                  // lint:gated(count == bytes / elem_size checked in open)
                  static_cast<std::size_t>(s.count));
  }

  /// Copies a required section into an owned vector (for the few small
  /// arrays that must stay std::vector, e.g. the chunk boundaries whose
  /// address the kernels take).
  template <typename T>
  void copy(std::uint32_t id, std::vector<T>& out) const {
    const TileFileSection& s = require(id, sizeof(T));
    // lint:gated(open() bounds offset+bytes to the file before any view escapes)
    const T* p = reinterpret_cast<const T*>(file_->data() + s.offset);
    // lint:gated(count == bytes / elem_size checked in open; p spans the section)
    out.assign(p, p + s.count);
  }

 private:
  const TileFileSection& require(std::uint32_t id,
                                 std::size_t elem_size) const;
  std::shared_ptr<MappedFile> file_;
  const TileFileHeader* header_ = nullptr;
  const TileFileSection* sections_ = nullptr;
};

/// Accumulates (id, payload) sections and writes the aligned container.
/// Payload pointers are borrowed: they must stay valid until write()
/// returns. The payload hash and all offsets are computed inside write().
class TileFileWriter {
 public:
  explicit TileFileWriter(TileFileHeader header) : header_(header) {}

  template <typename Array>
  void add(std::uint32_t id, const Array& v) {
    using T = typename Array::value_type;
    add_raw(id, sizeof(T), v.data(), v.size());
  }

  void add_raw(std::uint32_t id, std::size_t elem_size, const void* data,
               std::size_t count);

  /// Writes the file (throws std::runtime_error on I/O failure) and
  /// returns the payload hash recorded in the header.
  std::uint64_t write(const std::string& path);

 private:
  TileFileHeader header_;
  std::vector<TileFileSection> sections_;
  std::vector<const void*> payloads_;
};

/// True iff the file starts with the v2 magic (any version).
bool is_tile_file(const std::string& path);

/// Reads just the 128-byte header (for content keying without touching the
/// payload). Throws on open failure, short read or wrong magic.
TileFileHeader read_tile_file_header(const std::string& path);

/// Writes a tiled matrix (and optionally its transpose, for the SpMSpV
/// CSC kernel) as one v2 file. Returns the payload hash.
std::uint64_t write_tile_matrix_file_v2(
    const std::string& path, const TileMatrix<value_t>& m,
    const TileMatrix<value_t>* transpose = nullptr);

struct MappedTileMatrix {
  TileMatrix<value_t> tiled;
  TileMatrix<value_t> tiled_t;  // empty unless has_transpose
  bool has_transpose = false;
  TileFileHeader header;
};

/// Maps a kTileMatrix file: all heavy arrays become views into the mapping
/// (placed == Placement::kMapped, storage keeps the MappedFile alive); the
/// extracted COO mirror and the chunk boundaries are copied (small). When
/// `deep_validate` is set the full structural validators run over the
/// mapped view before returning.
MappedTileMatrix map_tile_matrix_file(const std::string& path,
                                      bool verify_hash = false,
                                      bool deep_validate = false);

/// Writes / maps a BitTileGraph. The header's nt must match NT at map
/// time; read_tile_file_header lets callers dispatch on nt first.
template <int NT>
std::uint64_t write_bit_tile_graph_file(const std::string& path,
                                        const BitTileGraph<NT>& g) {
  TileFileHeader h;
  h.kind = static_cast<std::uint32_t>(TileFileKind::kBitTileGraph);
  if (g.shared_masks) h.flags |= kTileFileSharedMasks;
  h.rows = g.n;
  h.cols = g.n;
  h.nt = NT;
  h.edges = g.edges;
  TileFileWriter w(h);
  namespace ts = tf_section;
  w.add(ts::kCsrTilePtr, g.csr_tile_ptr);
  w.add(ts::kCsrTileCol, g.csr_tile_col);
  w.add(ts::kCsrMasks, g.csr_masks);
  w.add(ts::kCsrRowSummary, g.csr_row_summary);
  w.add(ts::kCscTilePtr, g.csc_tile_ptr);
  w.add(ts::kCscTileRow, g.csc_tile_row);
  if (g.shared_masks) {
    w.add(ts::kCscMirror, g.csc_mirror);
  } else {
    w.add(ts::kCscMasks, g.csc_masks);
  }
  w.add(ts::kCscColSummary, g.csc_col_summary);
  w.add(ts::kSidePtr, g.side_ptr);
  w.add(ts::kSideDst, g.side_dst);
  w.add(ts::kCsrChunkPtr, g.csr_chunk_ptr);
  w.add(ts::kCscColWeight, g.csc_col_weight);
  return w.write(path);
}

template <int NT>
BitTileGraph<NT> map_bit_tile_graph_file(const std::string& path,
                                         bool verify_hash = false,
                                         bool deep_validate = false) {
  TileFileView v = TileFileView::open(MappedFile::open(path), verify_hash);
  const TileFileHeader& h = v.header();
  if (h.kind != static_cast<std::uint32_t>(TileFileKind::kBitTileGraph)) {
    throw std::runtime_error("tile_file: " + path + " is not a graph file");
  }
  if (h.nt != NT) {
    throw std::runtime_error("tile_file: graph tile size " +
                             std::to_string(h.nt) + " != requested " +
                             std::to_string(NT));
  }
  BitTileGraph<NT> g;
  g.n = static_cast<index_t>(h.rows);
  g.tile_n = ceil_div<index_t>(g.n, NT);
  g.edges = static_cast<offset_t>(h.edges);
  g.shared_masks = (h.flags & kTileFileSharedMasks) != 0;
  namespace ts = tf_section;
  v.bind(ts::kCsrTilePtr, g.csr_tile_ptr);
  v.bind(ts::kCsrTileCol, g.csr_tile_col);
  v.bind(ts::kCsrMasks, g.csr_masks);
  v.bind(ts::kCsrRowSummary, g.csr_row_summary);
  v.bind(ts::kCscTilePtr, g.csc_tile_ptr);
  v.bind(ts::kCscTileRow, g.csc_tile_row);
  if (g.shared_masks) {
    v.bind(ts::kCscMirror, g.csc_mirror);
  } else {
    v.bind(ts::kCscMasks, g.csc_masks);
  }
  v.bind(ts::kCscColSummary, g.csc_col_summary);
  v.bind(ts::kSidePtr, g.side_ptr);
  v.bind(ts::kSideDst, g.side_dst);
  v.copy(ts::kCsrChunkPtr, g.csr_chunk_ptr);
  v.bind(ts::kCscColWeight, g.csc_col_weight);
  // Cheap structural gates even in the fast path: the pointer arrays must
  // have their expected lengths or the kernels would index out of bounds.
  // Both orientations are gated — the CSC kernels index csc_masks (or the
  // mirror table) and the summaries just as hard as the CSR side.
  const std::size_t ntiles = g.csr_tile_col.size();
  if (g.csr_tile_ptr.size() != static_cast<std::size_t>(g.tile_n) + 1 ||
      g.csc_tile_ptr.size() != static_cast<std::size_t>(g.tile_n) + 1 ||
      g.side_ptr.size() != static_cast<std::size_t>(g.n) + 1 ||
      g.csc_tile_row.size() != ntiles ||
      g.csr_masks.size() != ntiles * static_cast<std::size_t>(NT) ||
      (g.shared_masks
           ? g.csc_mirror.size() != ntiles
           : g.csc_masks.size() != ntiles * static_cast<std::size_t>(NT)) ||
      g.csr_row_summary.size() != ntiles ||
      g.csc_col_summary.size() != ntiles ||
      g.csc_col_weight.size() != static_cast<std::size_t>(g.tile_n)) {
    throw std::runtime_error("tile_file: graph section lengths inconsistent");
  }
  // Derived, not stored: the side summary comes from side_ptr, whose
  // length the gate above just checked.
  g.build_side_summary();
  if (deep_validate) {
    require_valid(validate_bit_tile_graph(g), "map_bit_tile_graph_file");
  }
  g.placed = Placement::kMapped;
  g.storage = v.file();
  return g;
}

}  // namespace tilespmspv
