// tilespmspv_validate — command-line front end for the format-invariant
// validation layer (formats/validate.hpp).
//
// Two modes:
//   tilespmspv_validate FILE...        load each file through the
//                                      validating reader and report OK or
//                                      INVALID with the violated
//                                      invariants. A file whose magic is
//                                      TTLF (v2 tile file) gets the strict
//                                      path: payload-hash verify + deep
//                                      structural validation of the
//                                      mapped view; anything else is
//                                      parsed as Matrix Market.
//   tilespmspv_validate --suite NAME   build every structure the library
//                                      defines (Coo, Csr, TileMatrix,
//                                      PackedTileMatrix, BitTileGraph,
//                                      TileVector) from the named suite
//                                      matrix and run each validator —
//                                      a self-check that conversions
//                                      uphold their own invariants.
//
// Exit codes: 0 all valid, 1 at least one invalid input, 2 usage error.
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "formats/mm_io.hpp"
#include "formats/tile_file.hpp"
#include "formats/validate.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "tile/bit_tile_graph.hpp"
#include "tile/packed_tile_matrix.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_vector.hpp"
#include "util/args.hpp"

namespace {

using namespace tilespmspv;

int usage() {
  std::cerr <<
      "usage: tilespmspv_validate FILE...\n"
      "       tilespmspv_validate --suite NAME [--nt N] [--extract N]\n"
      "\n"
      "Validates matrix files (TTLF v2 tile files or Matrix Market)\n"
      "against the library's format invariants, or self-checks every\n"
      "structure built from a generator-suite matrix.\n"
      "Exit codes: 0 valid, 1 invalid input, 2 usage error.\n";
  return 2;
}

/// Maps a v2 tile file with the payload hash verified and the full
/// structural validators run over the mapped view — the strict check the
/// fast loaders skip — and reports it. Returns true when it is valid.
bool check_tile_file(const std::string& path) {
  const TileFileHeader h = read_tile_file_header(path);
  if (h.kind == static_cast<std::uint32_t>(TileFileKind::kTileMatrix)) {
    const MappedTileMatrix m = map_tile_matrix_file(
        path, /*verify_hash=*/true, /*deep_validate=*/true);
    std::cout << path << ": OK (tile-file matrix " << m.tiled.rows << "x"
              << m.tiled.cols << ", nt " << m.tiled.nt << ", tiles "
              << m.tiled.num_tiles() << ", nnz " << m.tiled.total_nnz()
              << (m.has_transpose ? ", with transpose" : "") << ")\n";
    return true;
  }
  if (h.kind == static_cast<std::uint32_t>(TileFileKind::kBitTileGraph)) {
    offset_t edges = 0;
    index_t n = 0;
    switch (h.nt) {
      case 16: {
        const auto g = map_bit_tile_graph_file<16>(path, true, true);
        edges = g.edges, n = g.n;
        break;
      }
      case 32: {
        const auto g = map_bit_tile_graph_file<32>(path, true, true);
        edges = g.edges, n = g.n;
        break;
      }
      case 64: {
        const auto g = map_bit_tile_graph_file<64>(path, true, true);
        edges = g.edges, n = g.n;
        break;
      }
      default:
        std::cout << path << ": INVALID (tile-file graph tile size " << h.nt
                  << " unsupported)\n";
        return false;
    }
    std::cout << path << ": OK (tile-file graph n " << n << ", nt " << h.nt
              << ", edges " << edges << ")\n";
    return true;
  }
  std::cout << path << ": INVALID (tile-file kind " << h.kind
            << " unknown)\n";
  return false;
}

/// Loads one file through the validating readers and reports the outcome:
/// a TTLF file is mapped, anything else is parsed as Matrix Market, whose
/// parser rejects what is not one. Returns true when the file is valid.
bool check_file(const std::string& path) {
  try {
    if (is_tile_file(path)) return check_tile_file(path);
    const auto m = read_matrix_market_file(path);
    std::cout << path << ": OK (matrix-market " << m.rows << "x" << m.cols
              << ", nnz " << m.nnz() << ")\n";
    return true;
  } catch (const std::runtime_error& e) {
    std::cout << path << ": INVALID (" << e.what() << ")\n";
    return false;
  }
}

/// Prints one self-check row and folds the result into `all_ok`.
void report(const char* name, const ValidationResult& r, bool& all_ok) {
  std::cout << "  " << name << ": " << (r.ok() ? "ok" : r.message()) << "\n";
  if (!r.ok()) all_ok = false;
}

int run_suite(const std::string& name, index_t nt, index_t extract) {
  const Coo<value_t> coo = suite_matrix(name);
  std::cout << name << " (" << coo.rows << "x" << coo.cols << ", nnz "
            << coo.nnz() << ")\n";
  bool all_ok = true;
  report("coo", validate_coo(coo), all_ok);
  const auto csr = Csr<value_t>::from_coo(coo);
  report("csr", validate_csr(csr), all_ok);
  report("csr-transpose", validate_csr(csr.transpose()), all_ok);
  report("tile-matrix",
         validate_tile_matrix(TileMatrix<value_t>::from_csr(csr, nt, extract)),
         all_ok);
  report("packed-tile-matrix",
         validate_packed_tile_matrix(PackedTileMatrix<value_t>::from_csr(csr)),
         all_ok);
  if (csr.rows == csr.cols) {
    report("bit-tile-graph",
           validate_bit_tile_graph(BitTileGraph<32>::from_csr(csr, extract)),
           all_ok);
  }
  const auto x = gen_sparse_vector(csr.cols, 0.01);
  report("sparse-vec", validate_sparse_vec(x), all_ok);
  report("tile-vector",
         validate_tile_vector(TileVector<value_t>::from_sparse(x, nt)),
         all_ok);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    args.reject_unknown({"--help", "--suite", "--nt", "--extract"});
    if (args.has("--help") || args.has("-h")) return usage();
    if (args.has("--suite")) {
      const std::string name = args.get("--suite");
      const auto nt = static_cast<index_t>(args.get_int("--nt", 16));
      const auto extract = static_cast<index_t>(args.get_int("--extract", 0));
      if (nt < 1 || nt > 256) {
        std::cerr << "tilespmspv_validate: --nt must be in [1, 256]\n";
        return 2;
      }
      return run_suite(name, nt, extract);
    }
    const std::vector<std::string> files = args.positional();
    if (files.empty()) return usage();
    bool all_ok = true;
    for (const auto& path : files) {
      if (!check_file(path)) all_ok = false;
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tilespmspv_validate: " << e.what() << "\n";
    return 2;
  }
}
