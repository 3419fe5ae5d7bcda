#include "formats/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "formats/io_util.hpp"
#include "formats/tile_file.hpp"
#include "formats/validate.hpp"

namespace tilespmspv {

namespace {

constexpr std::uint32_t kCsrMagic = 0x54435352;   // "TCSR"
constexpr std::uint32_t kTileMagic = 0x54544C4D;  // "TTLM"
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("serialize: truncated stream");
  return v;
}

void write_i64(std::ostream& out, std::int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::int64_t read_i64(std::istream& in) {
  std::int64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("serialize: truncated stream");
  return v;
}

/// Reads a header dimension and rejects anything that does not fit
/// index_t, instead of silently truncating through a static_cast.
index_t read_index(std::istream& in, const char* what) {
  const std::int64_t v = read_i64(in);
  if (v < 0 || v > std::numeric_limits<index_t>::max()) {
    throw std::runtime_error(std::string("serialize: ") + what + " value " +
                             std::to_string(v) + " is out of index range");
  }
  return static_cast<index_t>(v);
}

// Templated on the container so owned std::vector fields and ArrayBuf
// (owned or mapped view) serialize through the same path.
template <typename Array>
void write_vec(std::ostream& out, const Array& v) {
  using T = typename Array::value_type;
  write_i64(out, static_cast<std::int64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Reads a length-prefixed array, charging it against `budget` — the bytes
/// the stream can still provide (-1 when unseekable). A corrupt length is
/// rejected before the vector is sized, so it can never allocate more than
/// the stream could back.
template <typename T>
std::vector<T> read_vec(std::istream& in, std::int64_t& budget) {
  const std::int64_t n = read_i64(in);
  if (budget >= 0) budget -= static_cast<std::int64_t>(sizeof(std::int64_t));
  // Fallback cap for unseekable streams; seekable ones get the exact bound.
  if (n < 0 || n > (std::int64_t{1} << 40)) {
    throw std::runtime_error("serialize: implausible array length");
  }
  if (budget >= 0 && n > budget / static_cast<std::int64_t>(sizeof(T))) {
    throw std::runtime_error(
        "serialize: array length " + std::to_string(n) +
        " exceeds the remaining stream size");
  }
  std::vector<T> v(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  if (!in) throw std::runtime_error("serialize: truncated array");
  if (budget >= 0) budget -= static_cast<std::int64_t>(n * sizeof(T));
  return v;
}

void check_header(std::istream& in, std::uint32_t magic) {
  if (read_u32(in) != magic) {
    throw std::runtime_error("serialize: bad magic (wrong file type?)");
  }
  if (read_u32(in) != kVersion) {
    throw std::runtime_error("serialize: unsupported version");
  }
}

}  // namespace

SerializedKind probe_serialized_kind(std::istream& in) {
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in) return SerializedKind::kUnknown;
  if (magic == kCsrMagic) return SerializedKind::kCsr;
  if (magic == kTileMagic) return SerializedKind::kTileMatrix;
  if (magic == kTileFileMagic) return SerializedKind::kTileFile;
  return SerializedKind::kUnknown;
}

void write_csr(std::ostream& out, const Csr<value_t>& a) {
  write_u32(out, kCsrMagic);
  write_u32(out, kVersion);
  write_i64(out, a.rows);
  write_i64(out, a.cols);
  write_vec(out, a.row_ptr);
  write_vec(out, a.col_idx);
  write_vec(out, a.vals);
}

Csr<value_t> read_csr(std::istream& in) {
  check_header(in, kCsrMagic);
  Csr<value_t> a;
  a.rows = read_index(in, "rows");
  a.cols = read_index(in, "cols");
  std::int64_t budget = stream_bytes_remaining(in);
  a.row_ptr = read_vec<offset_t>(in, budget);
  a.col_idx = read_vec<index_t>(in, budget);
  a.vals = read_vec<value_t>(in, budget);
  // This is the trust boundary: the file may be corrupt or adversarial, so
  // every CSR invariant is re-checked before any kernel indexes through it.
  require_valid(validate_csr(a), "read_csr");
  return a;
}

void write_tile_matrix(std::ostream& out, const TileMatrix<value_t>& m) {
  write_u32(out, kTileMagic);
  write_u32(out, kVersion);
  write_i64(out, m.rows);
  write_i64(out, m.cols);
  write_i64(out, m.nt);
  write_vec(out, m.tile_row_ptr);
  write_vec(out, m.tile_col_id);
  write_vec(out, m.tile_nnz_ptr);
  write_vec(out, m.intra_row_ptr);
  write_vec(out, m.local_col);
  write_vec(out, m.vals);
  write_vec(out, m.extracted.row_idx);
  write_vec(out, m.extracted.col_idx);
  write_vec(out, m.extracted.vals);
}

TileMatrix<value_t> read_tile_matrix(std::istream& in) {
  check_header(in, kTileMagic);
  TileMatrix<value_t> m;
  m.rows = read_index(in, "rows");
  m.cols = read_index(in, "cols");
  m.nt = read_index(in, "nt");
  if (m.nt <= 0 || m.nt > 256) {
    throw std::runtime_error("serialize: invalid tile size");
  }
  m.tile_rows = ceil_div(m.rows, m.nt);
  m.tile_cols = ceil_div(m.cols, m.nt);
  std::int64_t budget = stream_bytes_remaining(in);
  // The derived side indexes rebuilt below are Θ(rows + cols), so a corrupt
  // 100-byte header claiming billions of columns would demand gigabytes
  // before any array is even read. Any plausible cache file carries payload
  // proportional to its dims (tile_row_ptr alone is rows/nt entries); the
  // generous floor keeps legitimately tiny matrices loadable.
  if (budget >= 0) {
    const std::int64_t dims =
        static_cast<std::int64_t>(m.rows) + static_cast<std::int64_t>(m.cols);
    if (dims > (std::int64_t{1} << 22) && dims > 64 * budget) {
      throw std::runtime_error(
          "serialize: header dimensions implausible for the stream size");
    }
  }
  m.tile_row_ptr = read_vec<offset_t>(in, budget);
  m.tile_col_id = read_vec<index_t>(in, budget);
  m.tile_nnz_ptr = read_vec<offset_t>(in, budget);
  m.intra_row_ptr = read_vec<std::uint16_t>(in, budget);
  m.local_col = read_vec<std::uint8_t>(in, budget);
  m.vals = read_vec<value_t>(in, budget);
  m.extracted = Coo<value_t>(m.rows, m.cols);
  m.extracted.row_idx = read_vec<index_t>(in, budget);
  m.extracted.col_idx = read_vec<index_t>(in, budget);
  m.extracted.vals = read_vec<value_t>(in, budget);
  // Trust boundary: validate the stored payload *before* the derived-index
  // builders below index through it.
  require_valid(validate_tile_payload(m), "read_tile_matrix");
  // The side indices and scheduling chunks are derived data; rebuild
  // instead of storing.
  m.build_side_index();
  m.build_row_chunks();
  m.build_row_runs();
  TILESPMSPV_POSTCONDITION(validate_tile_matrix(m), "read_tile_matrix");
  return m;
}

void write_tile_matrix_file(const std::string& path,
                            const TileMatrix<value_t>& m) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("serialize: cannot open " + path);
  write_tile_matrix(out, m);
}

TileMatrix<value_t> read_tile_matrix_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("serialize: cannot open " + path);
  return read_tile_matrix(in);
}

}  // namespace tilespmspv
