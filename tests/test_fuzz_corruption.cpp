// Corruption fuzzing of the file trust boundary (>= 1000 mutated inputs).
// Each round writes a known-good file — a Matrix Market text, a v2 tile
// file (TTLF) holding a tiled matrix, or one holding a BitTileGraph —
// applies one mutation — a bit flip, a random byte overwrite, a
// truncation, or an 8-byte-aligned field overwrite with an "interesting"
// integer — and requires the load to end in exactly one of two states:
//   - it throws std::runtime_error (a clean rejection), or
//   - it succeeds, in which case the loaded structure must pass its
//     validator, i.e. the bytes decoded to a fully valid structure.
// Any other exception (bad_alloc from an unbounded allocation, a sanitizer
// abort, a crash) fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "formats/mm_io.hpp"
#include "formats/tile_file.hpp"
#include "formats/validate.hpp"
#include "gen/erdos_renyi.hpp"
#include "util/prng.hpp"

namespace tilespmspv {
namespace {

enum class Outcome { kRejected, kLoadedValid };

/// Integer values known to expose length/dimension handling bugs.
const std::int64_t kInterestingValues[] = {
    0,
    1,
    -1,
    255,
    65536,
    std::int64_t{1} << 31,
    (std::int64_t{1} << 31) - 1,
    std::int64_t{1} << 40,
    std::numeric_limits<std::int64_t>::max(),
    std::numeric_limits<std::int64_t>::min(),
};

struct FuzzStats {
  int rejected = 0;
  int loaded = 0;
  int total() const { return rejected + loaded; }
  void count(Outcome o) {
    if (o == Outcome::kRejected) {
      ++rejected;
    } else {
      ++loaded;
    }
  }
};

template <typename Drive>
FuzzStats fuzz_binary(const std::string& base, Drive drive_fn,
                      std::uint64_t seed, int bit_flips, int byte_writes,
                      int truncations, int field_writes) {
  Prng rng(seed);
  FuzzStats stats;
  for (int i = 0; i < bit_flips; ++i) {
    std::string s = base;
    const auto pos = static_cast<std::size_t>(rng.next_below(s.size()));
    s[pos] = static_cast<char>(s[pos] ^ (1u << rng.next_below(8)));
    stats.count(drive_fn(s));
  }
  for (int i = 0; i < byte_writes; ++i) {
    std::string s = base;
    const auto pos = static_cast<std::size_t>(rng.next_below(s.size()));
    s[pos] = static_cast<char>(rng.next_below(256));
    stats.count(drive_fn(s));
  }
  for (int i = 0; i < truncations; ++i) {
    const auto len = static_cast<std::size_t>(rng.next_below(base.size()));
    stats.count(drive_fn(base.substr(0, len)));
  }
  // Overwrite 8-byte-aligned positions (where every length and dimension
  // field lives) with interesting integers.
  const std::size_t slots = base.size() / 8;
  for (int i = 0; i < field_writes; ++i) {
    std::string s = base;
    const std::size_t slot = static_cast<std::size_t>(rng.next_below(slots));
    const std::int64_t v =
        kInterestingValues[rng.next_below(std::size(kInterestingValues))];
    std::memcpy(&s[slot * 8], &v, sizeof(v));
    stats.count(drive_fn(s));
  }
  return stats;
}

TEST(FuzzCorruption, MatrixMarketText) {
  Coo<value_t> m = gen_erdos_renyi(60, 50, 0.04, 4203);
  std::ostringstream out;
  write_matrix_market(out, m);
  const std::string base = out.str();
  Prng rng(0xBEEF);
  int runs = 0;
  const auto drive_mtx = [](const std::string& s) {
    std::istringstream in(s);
    try {
      const Coo<value_t> loaded = read_matrix_market(in);
      const ValidationResult r = validate_coo(loaded);
      EXPECT_TRUE(r.ok()) << "ingested an invalid COO: " << r.message();
    } catch (const std::runtime_error&) {
      // Clean rejection.
    }
  };
  for (int i = 0; i < 160; ++i) {
    std::string s = base;
    const auto pos = static_cast<std::size_t>(rng.next_below(s.size()));
    s[pos] = static_cast<char>(rng.next_below(128));
    drive_mtx(s);
    ++runs;
  }
  for (int i = 0; i < 60; ++i) {
    const auto len = static_cast<std::size_t>(rng.next_below(base.size()));
    drive_mtx(base.substr(0, len));
    ++runs;
  }
  // Hostile size lines: huge dims and entry counts must be rejected before
  // any allocation happens, not after.
  const char* hostile[] = {
      "%%MatrixMarket matrix coordinate real general\n"
      "99999999999 3 1\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"
      "3 99999999999 1\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 999999999999999\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"
      "-3 3 1\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 -1\n1 1 1.0\n",
  };
  for (const char* doc : hostile) {
    std::istringstream in(doc);
    EXPECT_THROW(read_matrix_market(in), std::runtime_error) << doc;
    ++runs;
  }
  EXPECT_EQ(runs, 225);
}

// A stream with no newline: `head`, then `fill` bytes up to 1 MiB, which
// stands in for endless (a reader that reads a line whole still ends).
// Counts the bytes it hands out, so a test can bound what a reader took.
class EndlessBuf : public std::streambuf {
 public:
  EndlessBuf(std::string head, char fill)
      : head_(std::move(head)), block_(64, fill) {}
  std::size_t served() const { return served_; }

 protected:
  int_type underflow() override {
    if (served_ >= (std::size_t{1} << 20)) return traits_type::eof();
    std::string& next = head_served_ || head_.empty() ? block_ : head_;
    head_served_ = true;
    setg(next.data(), next.data(), next.data() + next.size());
    served_ += next.size();
    return traits_type::to_int_type(next[0]);
  }

 private:
  std::string head_;
  std::string block_;
  std::size_t served_ = 0;
  bool head_served_ = false;
};

// A binary file with no newline is refused from its first bytes, and a
// banner that never ends after a matching prefix from at most a bounded
// read, not read whole into one line first.
TEST(FuzzCorruption, MatrixMarketEndlessBannerIsBounded) {
  for (const auto& [head, fill] :
       {std::pair<std::string, char>{"", 'x'},
        std::pair<std::string, char>{"\x7f" "ELF", '\0'},
        std::pair<std::string, char>{"%%MatrixMarket matrix ", 'x'}}) {
    EndlessBuf buf(head, fill);
    std::istream in(&buf);
    try {
      (void)read_matrix_market(in);
      ADD_FAILURE() << "endless stream accepted, head '" << head << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad banner"), std::string::npos)
          << e.what();
    }
    EXPECT_LE(buf.served(), std::size_t{4096}) << "head '" << head << "'";
  }
}

// Total mutated inputs across the three fuzz corpora (Matrix Market text,
// tile-matrix file, graph tile file): 225 + 480 + 320 = 1025. The directed
// tile-file tests below add targeted attacks on top of that.

/// Writes raw bytes to `path` (the v2 loaders are path-based: they mmap).
void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(FuzzCorruption, TileFileMapping) {
  // The v2 container is the serving daemon's upload trust boundary: a
  // mutated file must either throw std::runtime_error out of the mapping
  // path or pass the full structural validation deep_validate runs. Any
  // other exception (or a crash on a mapped out-of-bounds view) is the bug.
  const std::string base_path = "/tmp/tilespmspv_fuzz_ttlf_base.bin";
  const std::string mut_path = "/tmp/tilespmspv_fuzz_ttlf_mut.bin";
  Coo<value_t> coo = gen_erdos_renyi(120, 96, 0.04, 4204);
  coo.cols = 110;
  coo.push(5, 100, 1.0);
  coo.push(119, 109, 0.25);
  const auto a = Csr<value_t>::from_coo(coo);
  const auto m = TileMatrix<value_t>::from_csr(a, 16, 2);
  const auto mt = TileMatrix<value_t>::from_csr(a.transpose(), 16, 2);
  write_tile_matrix_file_v2(base_path, m, &mt);
  const std::string base = read_bytes(base_path);
  std::remove(base_path.c_str());
  ASSERT_GT(base.size(), sizeof(TileFileHeader));

  const auto drive_map = [&](const std::string& bytes) {
    write_bytes(mut_path, bytes);
    try {
      map_tile_matrix_file(mut_path, /*verify_hash=*/false,
                           /*deep_validate=*/true);
      return Outcome::kLoadedValid;  // deep validation accepted it
    } catch (const std::runtime_error&) {
      return Outcome::kRejected;
    }
  };
  EXPECT_EQ(drive_map(base), Outcome::kLoadedValid);
  const FuzzStats stats =
      fuzz_binary(base, drive_map, 0xF17EF11E, 200, 100, 70, 110);
  std::remove(mut_path.c_str());
  EXPECT_EQ(stats.total(), 480);
  EXPECT_GT(stats.rejected, stats.total() / 4)
      << "rejected " << stats.rejected << " of " << stats.total();
  EXPECT_GT(stats.loaded, 0);
}

TEST(FuzzCorruption, GraphTileFileMapping) {
  // The graph tile file is what file-backed TileBfs and `tilespmspv_cli
  // convert --graph` use. The fixture has extracted edges, so the side
  // summary is rebuilt from the mapped side_ptr before deep validation
  // runs; a mutated file must throw std::runtime_error or map to a graph
  // that passes validation.
  const std::string base_path = "/tmp/tilespmspv_fuzz_graph_base.bin";
  const std::string mut_path = "/tmp/tilespmspv_fuzz_graph_mut.bin";
  // About four edges per 32x32 tile: some tiles stay stored, some are
  // extracted to the side list.
  Coo<value_t> coo = gen_erdos_renyi(256, 256, 0.002, 4208);
  coo.symmetrize();
  const auto g =
      BitTileGraph<32>::from_csr(Csr<value_t>::from_coo(coo), /*extract=*/2);
  ASSERT_GT(g.side_dst.size(), 0u) << "fixture must exercise the side part";
  ASSERT_GT(g.csr_tile_col.size(), 0u) << "fixture must keep stored tiles";
  write_bit_tile_graph_file<32>(base_path, g);
  const std::string base = read_bytes(base_path);
  std::remove(base_path.c_str());

  const auto drive_map = [&](const std::string& bytes) {
    write_bytes(mut_path, bytes);
    try {
      const BitTileGraph<32> loaded = map_bit_tile_graph_file<32>(
          mut_path, /*verify_hash=*/false, /*deep_validate=*/true);
      const ValidationResult r = validate_bit_tile_graph(loaded);
      EXPECT_TRUE(r.ok()) << "mapped an invalid graph: " << r.message();
      return Outcome::kLoadedValid;
    } catch (const std::runtime_error&) {
      return Outcome::kRejected;
    }
  };
  EXPECT_EQ(drive_map(base), Outcome::kLoadedValid);
  const FuzzStats stats =
      fuzz_binary(base, drive_map, 0x96A9F11E, 140, 60, 50, 70);
  std::remove(mut_path.c_str());
  EXPECT_EQ(stats.total(), 320);
  EXPECT_GT(stats.rejected, stats.total() / 4)
      << "rejected " << stats.rejected << " of " << stats.total();
  EXPECT_GT(stats.loaded, 0);
}

TEST(FuzzCorruption, TileFileDirectedHeaderAttacks) {
  // Deterministic attacks on every header/section invariant the mapping
  // path gates on: wrong magic, future version, truncation, misaligned and
  // out-of-bounds section offsets, inconsistent section byte counts, and a
  // payload whose content no longer matches the recorded hash.
  const std::string path = "/tmp/tilespmspv_fuzz_ttlf_directed.bin";
  const auto a = Csr<value_t>::from_coo(gen_erdos_renyi(90, 80, 0.05, 4205));
  const auto m = TileMatrix<value_t>::from_csr(a, 16, 2);
  write_tile_matrix_file_v2(path, m);
  const std::string base = read_bytes(path);

  const auto expect_reject = [&](std::string bytes, bool verify_hash,
                                 const char* what) {
    write_bytes(path, bytes);
    EXPECT_THROW(map_tile_matrix_file(path, verify_hash, true),
                 std::runtime_error)
        << what;
  };

  std::string s = base;
  std::memcpy(&s[0], "XXXX", 4);
  expect_reject(s, false, "wrong magic");

  s = base;
  const std::uint32_t future_version = kTileFileVersion + 1;
  std::memcpy(&s[4], &future_version, 4);
  expect_reject(s, false, "future version");

  expect_reject(base.substr(0, 64), false, "truncated mid-header");
  expect_reject(base.substr(0, sizeof(TileFileHeader) + 8), false,
                "truncated mid-section-table");
  expect_reject(base.substr(0, base.size() - 16), false,
                "truncated payload vs header file_bytes");

  // Section 0's entry starts right after the header: id(4) elem_size(4)
  // offset(8) bytes(8) count(8).
  const std::size_t sec0 = sizeof(TileFileHeader);
  s = base;
  std::uint64_t off = 0;
  std::memcpy(&off, &s[sec0 + 8], 8);
  off += 1;  // break the 64-byte alignment guarantee
  std::memcpy(&s[sec0 + 8], &off, 8);
  expect_reject(s, false, "misaligned section offset");

  s = base;
  off = base.size() + (std::uint64_t{1} << 32);  // far outside the mapping
  std::memcpy(&s[sec0 + 8], &off, 8);
  expect_reject(s, false, "out-of-bounds section offset");

  s = base;
  std::uint64_t count = 0;
  std::memcpy(&count, &s[sec0 + 24], 8);
  count += 1;  // bytes != count * elem_size
  std::memcpy(&s[sec0 + 24], &count, 8);
  expect_reject(s, false, "section bytes/count mismatch");

  // Wrapping count: 2^61 * elem_size(8) overflows uint64 to exactly 0, so
  // a multiplicative `bytes == count * elem_size` check would accept
  // bytes=0 and let views claim 2^61 elements over a tiny mapping. Target
  // the side_vals section (add-order index 11) — unlike the pointer
  // arrays it has no downstream length gate, so only the section-table
  // division check stands between the forged count and an out-of-bounds
  // read in deep validation.
  s = base;
  const std::size_t sec_side_vals = sec0 + 11 * sizeof(TileFileSection);
  std::uint32_t side_vals_id = 0;
  std::memcpy(&side_vals_id, &s[sec_side_vals], 4);
  ASSERT_EQ(side_vals_id, tf_section::kSideVals);
  const std::uint64_t wrap_count = std::uint64_t{1} << 61;
  const std::uint64_t wrap_bytes = 0;
  std::memcpy(&s[sec_side_vals + 16], &wrap_bytes, 8);
  std::memcpy(&s[sec_side_vals + 24], &wrap_count, 8);
  expect_reject(s, false, "count*elem_size wraps to stored bytes");

  // Flip one payload byte: the structure may still parse, but the recorded
  // payload hash no longer matches, so the strict path must reject it.
  s = base;
  s[s.size() - 1] = static_cast<char>(s[s.size() - 1] ^ 0x01);
  write_bytes(path, s);
  bool hash_caught = false;
  try {
    map_tile_matrix_file(path, /*verify_hash=*/true, /*deep_validate=*/false);
  } catch (const std::runtime_error&) {
    hash_caught = true;
  }
  EXPECT_TRUE(hash_caught) << "payload mutation evaded hash verification";

  // The unmutated file still passes the strictest load.
  write_bytes(path, base);
  const MappedTileMatrix ok = map_tile_matrix_file(path, true, true);
  EXPECT_EQ(ok.tiled.rows, 90);
  std::remove(path.c_str());
}

TEST(FuzzCorruption, TileFileParallelArrayAttack) {
  // Directed attack on bind_tile_matrix's parallel-array gate: shrink the
  // side_vals section by one element. Every per-section invariant open()
  // checks still holds (elem_size divides bytes, count == bytes/elem_size,
  // payload in bounds), so only the cross-section length gate stands
  // between the shortened array and the kernels' shared side cursor.
  const std::string path = "/tmp/tilespmspv_fuzz_ttlf_parallel.bin";
  Coo<value_t> coo = gen_erdos_renyi(120, 96, 0.04, 4206);
  coo.cols = 110;
  coo.push(5, 100, 1.0);
  coo.push(119, 109, 0.25);
  const auto a = Csr<value_t>::from_coo(coo);
  const auto m = TileMatrix<value_t>::from_csr(a, 16, 2);
  ASSERT_GT(m.side_vals.size(), 0u) << "fixture must exercise the side part";
  write_tile_matrix_file_v2(path, m);
  std::string s = read_bytes(path);

  const std::size_t sec_side_vals =
      sizeof(TileFileHeader) + 11 * sizeof(TileFileSection);
  std::uint32_t id = 0;
  std::memcpy(&id, &s[sec_side_vals], 4);
  ASSERT_EQ(id, tf_section::kSideVals);
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
  std::memcpy(&bytes, &s[sec_side_vals + 16], 8);
  std::memcpy(&count, &s[sec_side_vals + 24], 8);
  ASSERT_GT(count, 0u);
  bytes -= sizeof(value_t);
  count -= 1;
  std::memcpy(&s[sec_side_vals + 16], &bytes, 8);
  std::memcpy(&s[sec_side_vals + 24], &count, 8);
  write_bytes(path, s);
  // Even the cheapest load (no hash check, no deep validation) must reject.
  EXPECT_THROW(map_tile_matrix_file(path, false, false), std::runtime_error);
  std::remove(path.c_str());
}

TEST(FuzzCorruption, TileFileHeaderSniffAttacks) {
  // read_tile_file_header is the dispatch sniffer: TileBfs switches on nt
  // and the CLI prints dims before any mapping-time validation runs, so
  // forged version/dims/nt must not survive the sniff itself.
  const std::string path = "/tmp/tilespmspv_fuzz_ttlf_sniff.bin";
  const auto a = Csr<value_t>::from_coo(gen_erdos_renyi(60, 60, 0.05, 4207));
  const auto m = TileMatrix<value_t>::from_csr(a, 16, 2);
  write_tile_matrix_file_v2(path, m);
  const std::string base = read_bytes(path);

  // Header field offsets: rows@16, cols@24, nt@32 (see TileFileHeader).
  const auto expect_reject = [&](std::size_t at, std::int64_t v,
                                 const char* what) {
    std::string s = base;
    std::memcpy(&s[at], &v, sizeof(v));
    write_bytes(path, s);
    EXPECT_THROW(read_tile_file_header(path), std::runtime_error) << what;
  };
  expect_reject(32, 0, "nt = 0");
  expect_reject(32, -16, "negative nt");
  expect_reject(32, std::int64_t{1} << 20, "oversized nt");
  expect_reject(16, -1, "negative rows");
  expect_reject(24, std::int64_t{1} << 40, "cols beyond index range");
  {
    std::string s = base;
    const std::uint32_t future = kTileFileVersion + 7;
    std::memcpy(&s[4], &future, sizeof(future));
    write_bytes(path, s);
    EXPECT_THROW(read_tile_file_header(path), std::runtime_error)
        << "future version";
  }
  write_bytes(path, base);
  EXPECT_EQ(read_tile_file_header(path).nt, 16);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tilespmspv
