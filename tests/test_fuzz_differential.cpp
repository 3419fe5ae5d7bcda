// Differential fuzzing: many random (matrix, vector, configuration)
// draws, every SpMSpV implementation in the repo compared against the
// serial reference on each. Seeds are fixed, so failures replay exactly;
// the loop count keeps the whole binary under a second.
#include <gtest/gtest.h>

#include "baselines/bsr_spmv.hpp"
#include "baselines/csr_spmv.hpp"
#include "baselines/spmspv_bucket.hpp"
#include "baselines/spmspv_sort.hpp"
#include "baselines/tile_spmv.hpp"
#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/vector_gen.hpp"
#include "spgemm/gustavson.hpp"
#include "tile/packed_tile_matrix.hpp"
#include "util/simd.hpp"

namespace tilespmspv {
namespace {

TEST(FuzzDifferential, AllSpmspvImplementationsAgreeOnRandomDraws) {
  Prng meta_rng(0xF00D);
  for (int round = 0; round < 40; ++round) {
    // Random shape / density / vector sparsity / configuration.
    const auto rows = static_cast<index_t>(1 + meta_rng.next_below(500));
    const auto cols = static_cast<index_t>(1 + meta_rng.next_below(500));
    const double density = meta_rng.next_double(0.001, 0.1);
    const double sparsity = meta_rng.next_double(0.0, 0.6);
    const auto nt = std::vector<index_t>{16, 32, 64}[meta_rng.next_below(3)];
    const auto extract = static_cast<index_t>(meta_rng.next_below(4));
    const std::uint64_t seed = meta_rng.next_u64();
    SCOPED_TRACE("round " + std::to_string(round) + " rows=" +
                 std::to_string(rows) + " cols=" + std::to_string(cols) +
                 " nt=" + std::to_string(nt) + " extract=" +
                 std::to_string(extract) + " seed=" + std::to_string(seed));

    const Csr<value_t> a =
        Csr<value_t>::from_coo(gen_erdos_renyi(rows, cols, density, seed));
    const Csc<value_t> c = Csc<value_t>::from_csr(a);
    const SparseVec<value_t> x = gen_sparse_vector(cols, sparsity, seed + 1);
    const SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);

    // Optimized tiled kernels at the drawn configuration.
    {
      const TileMatrix<value_t> tiled =
          TileMatrix<value_t>::from_csr(a, nt, extract);
      const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, nt);
      ASSERT_TRUE(approx_equal(tile_spmspv(tiled, xt), expect));
      const TileMatrix<value_t> at =
          TileMatrix<value_t>::from_csr(a.transpose(), nt, extract);
      ASSERT_TRUE(approx_equal(tile_spmspv_csc(at, xt), expect));
    }
    // Operator with auto selection.
    {
      SpmspvOperator<value_t> op(a);
      ASSERT_TRUE(approx_equal(op.multiply(x), expect));
    }
    // Baselines.
    ASSERT_TRUE(approx_equal(csr_spmv(a, x), expect));
    ASSERT_TRUE(approx_equal(spmspv_colwise_reference(c, x), expect));
    ASSERT_TRUE(approx_equal(spmspv_bucket(c, x, 8), expect));
    ASSERT_TRUE(approx_equal(spmspv_sort(c, x), expect));
    ASSERT_TRUE(approx_equal(spmspv_via_spgemm(a, x), expect));
    {
      const Bsr<value_t> b = Bsr<value_t>::from_csr(a, 4);
      ASSERT_TRUE(approx_equal(bsr_spmv(b, x), expect));
    }
    // Packed layout (fixed nt = 16) and the semiring path.
    {
      const PackedTileMatrix<value_t> p =
          PackedTileMatrix<value_t>::from_csr(a);
      const TileVector<value_t> xt16 =
          TileVector<value_t>::from_sparse(x, 16);
      ASSERT_TRUE(approx_equal(packed_tile_spmspv(p, xt16), expect));
      SemiringOperator<PlusTimes<value_t>> sop(a, nt, extract);
      ASSERT_TRUE(approx_equal(sop.multiply(x), expect));
    }
  }
}

// The SIMD layer guarantees a scalar twin with identical semantics for
// every vector micro-kernel; this fuzzes the active tier (AVX2, SSE2 or
// scalar — whatever the binary was built with) against the twins over
// random lengths, hitting the 0, 1 and tail (n % lane-width != 0) cases.
TEST(FuzzDifferential, SimdMicroKernelsMatchScalarTwins) {
  Prng rng(0x51D);
  SCOPED_TRACE(std::string("active isa: ") + simd::active_isa());
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.next_below(130));  // covers 0 and 1
    const int nt = std::vector<int>{16, 32, 64}[rng.next_below(3)];
    std::vector<double> vals(n), xt(nt), prod_a(n, -1.0), prod_b(n, -1.0);
    std::vector<std::uint8_t> cols(n);
    for (int i = 0; i < n; ++i) {
      vals[i] = rng.next_double(-2.0, 2.0);
      cols[i] = static_cast<std::uint8_t>(rng.next_below(nt));
    }
    for (int i = 0; i < nt; ++i) xt[i] = rng.next_double(-2.0, 2.0);

    simd::gather_mul(vals.data(), cols.data(), n, xt.data(), prod_a.data());
    simd::gather_mul_scalar(vals.data(), cols.data(), n, xt.data(),
                            prod_b.data());
    for (int i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(prod_a[i], prod_b[i]) << "i=" << i << " n=" << n;
    }

    const double dot = simd::dot_gather(vals.data(), cols.data(), n, xt.data());
    const double dot_ref =
        simd::dot_gather_scalar(vals.data(), cols.data(), n, xt.data());
    ASSERT_NEAR(dot, dot_ref, 1e-10 * (1.0 + std::abs(dot_ref))) << "n=" << n;

    const double rs = simd::range_sum(prod_b.data(), n);
    const double rs_ref = simd::range_sum_scalar(prod_b.data(), n);
    ASSERT_NEAR(rs, rs_ref, 1e-10 * (1.0 + std::abs(rs_ref))) << "n=" << n;

    const double dc = simd::dot_contig(vals.data(), xt.data(),
                                       std::min(n, nt));
    const double dc_ref = simd::dot_contig_scalar(vals.data(), xt.data(),
                                                  std::min(n, nt));
    ASSERT_NEAR(dc, dc_ref, 1e-10 * (1.0 + std::abs(dc_ref))) << "n=" << n;
  }
}

// Row-panel kernel of the block engine: a 4-lane accumulator panel updated
// across a row's entries. Sweeps entry counts, strides (block widths) and
// panel widths 1..4 (the k % 4 tail).
TEST(FuzzDifferential, SimdLanePanelUpdateMatchesScalarTwin) {
  Prng rng(0x9A7E);
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.next_below(40));
    const int stride = 4 + static_cast<int>(rng.next_below(61));
    const int w = 1 + static_cast<int>(rng.next_below(4));
    std::vector<double> vals(n), x(static_cast<std::size_t>(256 * stride));
    std::vector<std::uint8_t> cols(n);
    for (int i = 0; i < n; ++i) {
      vals[i] = rng.next_double(-2.0, 2.0);
      cols[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    for (auto& v : x) v = rng.next_double(-2.0, 2.0);
    double acc_a[4], acc_b[4];
    for (int v = 0; v < w; ++v) acc_a[v] = acc_b[v] = rng.next_double(-1, 1);
    simd::lane_panel_update(vals.data(), cols.data(), n, stride, w, x.data(),
                            acc_a);
    simd::lane_panel_update_scalar(vals.data(), cols.data(), n, stride, w,
                                   x.data(), acc_b);
    for (int v = 0; v < w; ++v) {
      ASSERT_NEAR(acc_a[v], acc_b[v], 1e-10 * (1.0 + std::abs(acc_b[v])))
          << "v=" << v << " n=" << n << " w=" << w;
    }
  }
}

TEST(FuzzDifferential, SimdLanePanel16UpdateMatchesScalarTwin) {
  Prng rng(0x16A5);
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.next_below(40));
    const int stride = 16 + static_cast<int>(rng.next_below(49));
    std::vector<double> vals(n), x(static_cast<std::size_t>(256 * stride));
    std::vector<std::uint8_t> cols(n);
    for (int i = 0; i < n; ++i) {
      vals[i] = rng.next_double(-2.0, 2.0);
      cols[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    for (auto& v : x) v = rng.next_double(-2.0, 2.0);
    double acc_a[16], acc_b[16];
    for (int v = 0; v < 16; ++v) {
      acc_a[v] = acc_b[v] = rng.next_double(-1, 1);
    }
    simd::lane_panel16_update(vals.data(), cols.data(), n, stride, x.data(),
                              acc_a);
    simd::lane_panel16_update_scalar(vals.data(), cols.data(), n, stride,
                                     x.data(), acc_b);
    for (int v = 0; v < 16; ++v) {
      ASSERT_NEAR(acc_a[v], acc_b[v], 1e-10 * (1.0 + std::abs(acc_b[v])))
          << "v=" << v << " n=" << n;
    }
  }
}

TEST(FuzzDifferential, SimdPackedFlatScanMatchesScalarTwin) {
  Prng rng(0xBEEF);
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.next_below(90));
    std::vector<double> vals(n), xt(16);
    std::vector<std::uint8_t> packed(n);
    for (int i = 0; i < n; ++i) {
      vals[i] = rng.next_double(-2.0, 2.0);
      packed[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    for (int i = 0; i < 16; ++i) xt[i] = rng.next_double(-2.0, 2.0);
    double acc_a[16], acc_b[16];
    for (int i = 0; i < 16; ++i) acc_a[i] = acc_b[i] = rng.next_double(-1, 1);
    simd::packed_flat_scan(vals.data(), packed.data(), n, xt.data(), acc_a);
    simd::packed_flat_scan_scalar(vals.data(), packed.data(), n, xt.data(),
                                  acc_b);
    for (int i = 0; i < 16; ++i) {
      ASSERT_NEAR(acc_a[i], acc_b[i], 1e-10 * (1.0 + std::abs(acc_b[i])))
          << "slot " << i << " n=" << n;
    }
  }
}

// Kernel-level edge shapes the random rounds above rarely draw: empty,
// single-nonzero and fully dense vectors, and row counts that leave a
// partial last tile (rows % nt != 0). Runs in both SIMD and NO_SIMD
// builds (CI covers the scalar tier explicitly).
TEST(FuzzDifferential, EdgeVectorsAndTailTilesAgree) {
  for (const index_t nt : {index_t{16}, index_t{32}, index_t{64}}) {
    for (const index_t rows : {nt - 3, 3 * nt + 7, index_t{257}}) {
      const index_t cols = rows + 5;  // cols % nt != 0 too
      const Csr<value_t> a = Csr<value_t>::from_coo(
          gen_erdos_renyi(rows, cols, 0.08, 77 + nt + rows));
      const TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, nt, 2);
      const TileMatrix<value_t> at =
          TileMatrix<value_t>::from_csr(a.transpose(), nt, 2);
      for (const double sparsity : {-1.0, 0.0, 1.0}) {
        SparseVec<value_t> x(cols);
        if (sparsity < 0.0) {
          x.push(cols / 2, 1.5);  // single nonzero
        } else if (sparsity > 0.0) {
          for (index_t j = 0; j < cols; ++j) x.push(j, 0.25 + j % 7);  // full
        }  // else: empty
        SCOPED_TRACE("nt=" + std::to_string(nt) + " rows=" +
                     std::to_string(rows) + " case=" +
                     std::to_string(sparsity));
        const SparseVec<value_t> expect = spmspv_rowwise_reference(a, x);
        const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, nt);
        ASSERT_TRUE(approx_equal(tile_spmspv(tiled, xt), expect));
        ASSERT_TRUE(approx_equal(tile_spmspv_csc(at, xt), expect));
        if (nt == 16) {
          const PackedTileMatrix<value_t> p =
              PackedTileMatrix<value_t>::from_csr(a);
          ASSERT_TRUE(approx_equal(packed_tile_spmspv(p, xt), expect));
        }
      }
    }
  }
}

}  // namespace
}  // namespace tilespmspv
