#include "formats/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "formats/io_util.hpp"
#include "formats/validate.hpp"

namespace tilespmspv {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Files written on Windows arrive with CRLF line endings; std::getline
// strips only the '\n', leaving a trailing '\r' that would corrupt the
// last token of every line ("general\r" fails the symmetry check).
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

// Longest banner line accepted; real ones are about 50 bytes.
constexpr std::size_t kMaxBannerBytes = 1024;

// Reads the banner line without reading a non-Matrix Market stream whole:
// every file that is not a tile file lands here, binary ones with no
// newline too. The read stops at the first byte that departs from the
// "%%MatrixMarket" prefix, and at kMaxBannerBytes.
std::string read_banner(std::istream& in) {
  static constexpr char kPrefix[] = "%%MatrixMarket";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  std::string line;
  char c = 0;
  while (in.get(c) && c != '\n') {
    line.push_back(c);
    if ((line.size() <= kPrefixLen && c != kPrefix[line.size() - 1]) ||
        line.size() == kMaxBannerBytes) {
      // Echo only the start of what was read.
      throw std::runtime_error("matrix market: bad banner: " +
                               line.substr(0, 64));
    }
  }
  if (line.empty() && c != '\n') {
    throw std::runtime_error("matrix market: empty stream");
  }
  strip_cr(line);
  return line;
}

}  // namespace

Coo<value_t> read_matrix_market(std::istream& in) {
  std::string line = read_banner(in);
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket" || lower(object) != "matrix") {
    throw std::runtime_error("matrix market: bad banner: " +
                             line.substr(0, 64));
  }
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  if (format != "coordinate") {
    throw std::runtime_error("matrix market: only coordinate format supported");
  }
  if (field != "real" && field != "integer" && field != "pattern") {
    throw std::runtime_error("matrix market: unsupported field: " + field);
  }
  if (symmetry != "general" && symmetry != "symmetric") {
    throw std::runtime_error("matrix market: unsupported symmetry: " +
                             symmetry);
  }

  // Skip comments, then read the size line.
  while (std::getline(in, line)) {
    strip_cr(line);
    if (!line.empty() && line[0] != '%') break;
  }
  long long rows = 0, cols = 0, entries = 0;
  {
    std::istringstream size_line(line);
    if (!(size_line >> rows >> cols >> entries)) {
      throw std::runtime_error("matrix market: bad size line: " + line);
    }
  }
  if (rows < 0 || cols < 0 || entries < 0) {
    throw std::runtime_error("matrix market: negative size line: " + line);
  }
  // Dims must fit index_t exactly; a static_cast here would silently
  // truncate a 64-bit header value into a wrong (possibly negative) index.
  if (rows > std::numeric_limits<index_t>::max() ||
      cols > std::numeric_limits<index_t>::max()) {
    throw std::runtime_error("matrix market: dimensions out of index range: " +
                             line);
  }
  // Bound the claimed entry count by what the stream can still provide (a
  // coordinate line is at least "1 1" plus a newline), so a corrupt count
  // cannot pre-allocate far beyond the file size.
  const std::int64_t remaining = stream_bytes_remaining(in);
  if (remaining >= 0 && entries > remaining / 4 + 1) {
    throw std::runtime_error(
        "matrix market: claimed entry count exceeds the stream size");
  }

  Coo<value_t> m(static_cast<index_t>(rows), static_cast<index_t>(cols));
  m.reserve(static_cast<std::size_t>(entries) *
            (symmetry == "symmetric" ? 2 : 1));
  const bool pattern = field == "pattern";
  for (long long e = 0; e < entries; ++e) {
    if (!std::getline(in, line)) {
      throw std::runtime_error("matrix market: truncated entry list");
    }
    strip_cr(line);
    if (line.empty()) {
      --e;
      continue;
    }
    std::istringstream entry(line);
    long long r = 0, c = 0;
    double v = 1.0;
    entry >> r >> c;
    if (!pattern) entry >> v;
    if (!entry) {
      throw std::runtime_error("matrix market: bad entry: " + line);
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      throw std::runtime_error("matrix market: index out of range: " + line);
    }
    m.push(static_cast<index_t>(r - 1), static_cast<index_t>(c - 1), v);
    if (symmetry == "symmetric" && r != c) {
      m.push(static_cast<index_t>(c - 1), static_cast<index_t>(r - 1), v);
    }
  }
  m.sort_row_major();
  m.sum_duplicates();
  // Trust boundary: ingest validates unconditionally.
  require_valid(validate_coo(m), "read_matrix_market");
  return m;
}

Coo<value_t> read_matrix_market_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("matrix market: cannot open " + path);
  }
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Coo<value_t>& m) {
  out.precision(17);  // round-trip exact for IEEE doubles
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows << ' ' << m.cols << ' ' << m.nnz() << '\n';
  for (index_t i = 0; i < m.nnz(); ++i) {
    out << m.row_idx[i] + 1 << ' ' << m.col_idx[i] + 1 << ' ' << m.vals[i]
        << '\n';
  }
}

}  // namespace tilespmspv
