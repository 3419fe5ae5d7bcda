// Minimal fixed-width SIMD layer for the SpMSpV hot loops.
//
// Three tiers, selected at compile time:
//   - AVX2 (+FMA when available): 4-wide double lanes with hardware gather
//     for the xt[local_col[i]] indirection;
//   - SSE2: 2-wide double lanes (scalar loads feeding vector arithmetic —
//     x86-64 baseline, no gather instruction);
//   - scalar: guaranteed plain-C++ loops, also what the TILESPMSPV_NO_SIMD
//     CMake option forces for differential testing and odd targets.
//
// Every vector micro-kernel has a `*_scalar` twin with identical semantics
// compiled unconditionally, so a single binary can differentially test the
// active tier against the guaranteed-scalar version (see
// tests/test_fuzz_differential.cpp). Kernels only change the order in which
// partial products are summed, never which products are formed, so the
// observability counters (payload_macs etc.) are unaffected by the tier.
#pragma once  // lint:hot-path-file

#include <cstdint>
#include <cstring>

#if !defined(TILESPMSPV_NO_SIMD)
#if defined(__AVX2__)
#define TILESPMSPV_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define TILESPMSPV_SIMD_SSE2 1
#include <emmintrin.h>
#endif
#endif  // !TILESPMSPV_NO_SIMD

namespace tilespmspv::simd {

#if defined(TILESPMSPV_SIMD_AVX2)
/// Gather wrapper over the masked intrinsic with a zeroed source: the plain
/// _mm256_i32gather_pd takes an undefined source vector, which GCC's header
/// implementation reports as maybe-uninitialized under -Werror.
/// Intrinsic wrapper, not a kernel: no scalar twin. lint:allow(simd-twin)
inline __m256d gather_pd(const double* base, __m128i idx) {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx,
                                  _mm256_castsi256_pd(_mm256_set1_epi64x(-1)),
                                  8);
}
#endif

/// Name of the tier the library was compiled with (exposed by benches and
/// the CLI so recorded numbers carry their ISA).
inline constexpr const char* active_isa() {
#if defined(TILESPMSPV_SIMD_AVX2)
  return "avx2";
#elif defined(TILESPMSPV_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

// ---------------------------------------------------------------------
// gather_mul: prod[i] = vals[i] * xt[cols[i]] for i in [0, n).
// The vectorizable half of the dense-in-tile accumulation: the gather and
// multiply are data-parallel; the per-row reduction of `prod` stays with
// the caller, which knows the row boundaries.
// ---------------------------------------------------------------------
inline void gather_mul_scalar(const double* vals, const std::uint8_t* cols,
                              int n, const double* xt, double* prod) {
  for (int i = 0; i < n; ++i) prod[i] = vals[i] * xt[cols[i]];
}

#if defined(TILESPMSPV_SIMD_AVX2)
inline void gather_mul(const double* vals, const std::uint8_t* cols, int n,
                       const double* xt, double* prod) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t packed4;
    std::memcpy(&packed4, cols + i, 4);
    const __m128i idx =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed4)));
    const __m256d x = gather_pd(xt, idx);
    const __m256d v = _mm256_loadu_pd(vals + i);
    _mm256_storeu_pd(prod + i, _mm256_mul_pd(v, x));
  }
  for (; i < n; ++i) prod[i] = vals[i] * xt[cols[i]];
}
#elif defined(TILESPMSPV_SIMD_SSE2)
inline void gather_mul(const double* vals, const std::uint8_t* cols, int n,
                       const double* xt, double* prod) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_set_pd(xt[cols[i + 1]], xt[cols[i]]);
    const __m128d v = _mm_loadu_pd(vals + i);
    _mm_storeu_pd(prod + i, _mm_mul_pd(v, x));
  }
  for (; i < n; ++i) prod[i] = vals[i] * xt[cols[i]];
}
#else
inline void gather_mul(const double* vals, const std::uint8_t* cols, int n,
                       const double* xt, double* prod) {
  gather_mul_scalar(vals, cols, n, xt, prod);
}
#endif

// ---------------------------------------------------------------------
// dot_gather: sum_i vals[i] * xt[cols[i]] — one intra-tile CSR row against
// a dense vector tile. Used when a single row is long enough that lane
// partials amortize (dense tiles at large nt).
// ---------------------------------------------------------------------
inline double dot_gather_scalar(const double* vals, const std::uint8_t* cols,
                                int n, const double* xt) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += vals[i] * xt[cols[i]];
  return sum;
}

#if defined(TILESPMSPV_SIMD_AVX2)
inline double dot_gather(const double* vals, const std::uint8_t* cols, int n,
                         const double* xt) {
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t packed4;
    std::memcpy(&packed4, cols + i, 4);
    const __m128i idx =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed4)));
    const __m256d x = gather_pd(xt, idx);
    const __m256d v = _mm256_loadu_pd(vals + i);
#if defined(__FMA__)
    acc = _mm256_fmadd_pd(v, x, acc);
#else
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, x));
#endif
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) sum += vals[i] * xt[cols[i]];
  return sum;
}
#elif defined(TILESPMSPV_SIMD_SSE2)
inline double dot_gather(const double* vals, const std::uint8_t* cols, int n,
                         const double* xt) {
  __m128d acc = _mm_setzero_pd();
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_set_pd(xt[cols[i + 1]], xt[cols[i]]);
    const __m128d v = _mm_loadu_pd(vals + i);
    acc = _mm_add_pd(acc, _mm_mul_pd(v, x));
  }
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) sum += vals[i] * xt[cols[i]];
  return sum;
}
#else
inline double dot_gather(const double* vals, const std::uint8_t* cols, int n,
                         const double* xt) {
  return dot_gather_scalar(vals, cols, n, xt);
}
#endif

// ---------------------------------------------------------------------
// range_sum: sum of a contiguous run prod[0..n) — the per-row reduction
// that follows gather_mul. Short runs stay scalar; the vector path kicks
// in from 4 (AVX2) / 2 (SSE2) elements.
// ---------------------------------------------------------------------
inline double range_sum_scalar(const double* prod, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += prod[i];
  return sum;
}

#if defined(TILESPMSPV_SIMD_AVX2)
inline double range_sum(const double* prod, int n) {
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(prod + i));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) sum += prod[i];
  return sum;
}
#elif defined(TILESPMSPV_SIMD_SSE2)
inline double range_sum(const double* prod, int n) {
  __m128d acc = _mm_setzero_pd();
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = _mm_add_pd(acc, _mm_loadu_pd(prod + i));
  }
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) sum += prod[i];
  return sum;
}
#else
inline double range_sum(const double* prod, int n) {
  return range_sum_scalar(prod, n);
}
#endif

// ---------------------------------------------------------------------
// dot_contig: sum_i vals[i] * x[i] — an intra-tile row whose local columns
// are consecutive (the banded/FEM regime). The vector-tile operand is then
// a contiguous slice, so the dot needs plain loads instead of gathers.
// ---------------------------------------------------------------------
inline double dot_contig_scalar(const double* vals, const double* x, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += vals[i] * x[i];
  return sum;
}

#if defined(TILESPMSPV_SIMD_AVX2)
inline double dot_contig(const double* vals, const double* x, int n) {
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(vals + i);
    const __m256d xv = _mm256_loadu_pd(x + i);
#if defined(__FMA__)
    acc = _mm256_fmadd_pd(v, xv, acc);
#else
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, xv));
#endif
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) sum += vals[i] * x[i];
  return sum;
}
#elif defined(TILESPMSPV_SIMD_SSE2)
inline double dot_contig(const double* vals, const double* x, int n) {
  __m128d acc = _mm_setzero_pd();
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(vals + i);
    const __m128d xv = _mm_loadu_pd(x + i);
    acc = _mm_add_pd(acc, _mm_mul_pd(v, xv));
  }
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) sum += vals[i] * x[i];
  return sum;
}
#else
inline double dot_contig(const double* vals, const double* x, int n) {
  return dot_contig_scalar(vals, x, n);
}
#endif

// ---------------------------------------------------------------------
// packed_flat_scan: acc[row(b)] += vals[i] * xt[col(b)] over a packed-byte
// tile (row in the high nibble, column in the low nibble — the §3.2.1
// encoding). Products are formed 4-wide (gather on the low nibbles), the
// row scatter stays scalar: x86 has no conflict-safe scatter-add below
// AVX-512CD, and rows repeat within a tile.
// ---------------------------------------------------------------------
inline void packed_flat_scan_scalar(const double* vals,
                                    const std::uint8_t* packed, int n,
                                    const double* xt, double* acc) {
  for (int i = 0; i < n; ++i) {
    const std::uint8_t b = packed[i];
    acc[b >> 4] += vals[i] * xt[b & 0xF];
  }
}

#if defined(TILESPMSPV_SIMD_AVX2)
inline void packed_flat_scan(const double* vals, const std::uint8_t* packed,
                             int n, const double* xt, double* acc) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t four;
    std::memcpy(&four, packed + i, 4);
    const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(four));
    const __m128i widened = _mm_cvtepu8_epi32(bytes);
    const __m128i colidx = _mm_and_si128(widened, _mm_set1_epi32(0xF));
    const __m256d x = gather_pd(xt, colidx);
    const __m256d v = _mm256_loadu_pd(vals + i);
    double prod[4];
    _mm256_storeu_pd(prod, _mm256_mul_pd(v, x));
    acc[(four >> 4) & 0xF] += prod[0];
    acc[(four >> 12) & 0xF] += prod[1];
    acc[(four >> 20) & 0xF] += prod[2];
    acc[(four >> 28) & 0xF] += prod[3];
  }
  for (; i < n; ++i) {
    const std::uint8_t b = packed[i];
    acc[b >> 4] += vals[i] * xt[b & 0xF];
  }
}
#elif defined(TILESPMSPV_SIMD_SSE2)
inline void packed_flat_scan(const double* vals, const std::uint8_t* packed,
                             int n, const double* xt, double* acc) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint8_t b0 = packed[i], b1 = packed[i + 1];
    const __m128d x = _mm_set_pd(xt[b1 & 0xF], xt[b0 & 0xF]);
    const __m128d v = _mm_loadu_pd(vals + i);
    double prod[2];
    _mm_storeu_pd(prod, _mm_mul_pd(v, x));
    acc[b0 >> 4] += prod[0];
    acc[b1 >> 4] += prod[1];
  }
  for (; i < n; ++i) {
    const std::uint8_t b = packed[i];
    acc[b >> 4] += vals[i] * xt[b & 0xF];
  }
}
#else
inline void packed_flat_scan(const double* vals, const std::uint8_t* packed,
                             int n, const double* xt, double* acc) {
  packed_flat_scan_scalar(vals, packed, n, xt, acc);
}
#endif

// ---------------------------------------------------------------------
// lane_panel_update: acc[v] += sum_i vals[i] * x[cols[i]*stride + v] for
// v in [0, w), w <= 4 — one tile row × one 4-lane group of the SpMSpM
// accumulator block. Keeping the panel in a register across the row's
// entries turns the engine's per-entry accumulator load/store (2 × k
// doubles of L1 traffic per nonzero) into one load/store per (row, group),
// which is what makes the block path arithmetic-bound on dense tiles.
// ---------------------------------------------------------------------
inline void lane_panel_update_scalar(const double* vals,
                                     const std::uint8_t* cols, int n,
                                     int stride, int w, const double* x,
                                     double* acc) {
  for (int i = 0; i < n; ++i) {
    const double a = vals[i];
    const double* xr = x + static_cast<std::size_t>(cols[i]) *
                               static_cast<std::size_t>(stride);
    for (int v = 0; v < w; ++v) acc[v] += a * xr[v];
  }
}

#if defined(TILESPMSPV_SIMD_AVX2)
inline void lane_panel_update(const double* vals, const std::uint8_t* cols,
                              int n, int stride, int w, const double* x,
                              double* acc) {
  if (w != 4) {
    lane_panel_update_scalar(vals, cols, n, stride, w, x, acc);
    return;
  }
#if defined(__FMA__)
#define TILESPMSPV_PANEL_STEP(A, I)                                    \
  A = _mm256_fmadd_pd(                                                 \
      _mm256_set1_pd(vals[I]),                                         \
      _mm256_loadu_pd(x + static_cast<std::size_t>(cols[I]) *          \
                              static_cast<std::size_t>(stride)),       \
      A)
#else
#define TILESPMSPV_PANEL_STEP(A, I)                                    \
  A = _mm256_add_pd(                                                   \
      A, _mm256_mul_pd(                                                \
             _mm256_set1_pd(vals[I]),                                  \
             _mm256_loadu_pd(x + static_cast<std::size_t>(cols[I]) *   \
                                     static_cast<std::size_t>(stride))))
#endif
  // Four independent accumulator chains hide the FMA latency; they are
  // summed once at the end (a different association than the scalar twin,
  // same set of products — the layer's usual contract).
  __m256d a0 = _mm256_loadu_pd(acc);
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    TILESPMSPV_PANEL_STEP(a0, i);
    TILESPMSPV_PANEL_STEP(a1, i + 1);
    TILESPMSPV_PANEL_STEP(a2, i + 2);
    TILESPMSPV_PANEL_STEP(a3, i + 3);
  }
  for (; i < n; ++i) TILESPMSPV_PANEL_STEP(a0, i);
#undef TILESPMSPV_PANEL_STEP
  _mm256_storeu_pd(acc, _mm256_add_pd(_mm256_add_pd(a0, a1),
                                      _mm256_add_pd(a2, a3)));
}
#elif defined(TILESPMSPV_SIMD_SSE2)
inline void lane_panel_update(const double* vals, const std::uint8_t* cols,
                              int n, int stride, int w, const double* x,
                              double* acc) {
  if (w != 4) {
    lane_panel_update_scalar(vals, cols, n, stride, w, x, acc);
    return;
  }
  // Two entries per iteration -> four independent 2-wide chains.
  __m128d a0 = _mm_loadu_pd(acc);
  __m128d a1 = _mm_loadu_pd(acc + 2);
  __m128d b0 = _mm_setzero_pd();
  __m128d b1 = _mm_setzero_pd();
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d av = _mm_set1_pd(vals[i]);
    const double* xr = x + static_cast<std::size_t>(cols[i]) *
                               static_cast<std::size_t>(stride);
    a0 = _mm_add_pd(a0, _mm_mul_pd(av, _mm_loadu_pd(xr)));
    a1 = _mm_add_pd(a1, _mm_mul_pd(av, _mm_loadu_pd(xr + 2)));
    const __m128d bv = _mm_set1_pd(vals[i + 1]);
    const double* xs = x + static_cast<std::size_t>(cols[i + 1]) *
                               static_cast<std::size_t>(stride);
    b0 = _mm_add_pd(b0, _mm_mul_pd(bv, _mm_loadu_pd(xs)));
    b1 = _mm_add_pd(b1, _mm_mul_pd(bv, _mm_loadu_pd(xs + 2)));
  }
  for (; i < n; ++i) {
    const __m128d av = _mm_set1_pd(vals[i]);
    const double* xr = x + static_cast<std::size_t>(cols[i]) *
                               static_cast<std::size_t>(stride);
    a0 = _mm_add_pd(a0, _mm_mul_pd(av, _mm_loadu_pd(xr)));
    a1 = _mm_add_pd(a1, _mm_mul_pd(av, _mm_loadu_pd(xr + 2)));
  }
  _mm_storeu_pd(acc, _mm_add_pd(a0, b0));
  _mm_storeu_pd(acc + 2, _mm_add_pd(a1, b1));
}
#else
inline void lane_panel_update(const double* vals, const std::uint8_t* cols,
                              int n, int stride, int w, const double* x,
                              double* acc) {
  lane_panel_update_scalar(vals, cols, n, stride, w, x, acc);
}
#endif

// ---------------------------------------------------------------------
// lane_panel16_update: the 16-lane-wide sibling of lane_panel_update —
// acc[v] += sum_i vals[i] * x[cols[i]*stride + v] for v in [0, 16). Used
// by the SpMSpM engine for fully (or nearly fully) active 16-lane groups:
// four 4-wide accumulators cover the group, giving four independent FMA
// chains per entry while still paying the accumulator load/store once per
// (row, group) rather than once per nonzero.
// ---------------------------------------------------------------------
inline void lane_panel16_update_scalar(const double* vals,
                                       const std::uint8_t* cols, int n,
                                       int stride, const double* x,
                                       double* acc) {
  for (int i = 0; i < n; ++i) {
    const double a = vals[i];
    const double* xr = x + static_cast<std::size_t>(cols[i]) *
                               static_cast<std::size_t>(stride);
    for (int v = 0; v < 16; ++v) acc[v] += a * xr[v];
  }
}

#if defined(TILESPMSPV_SIMD_AVX2)
inline void lane_panel16_update(const double* vals, const std::uint8_t* cols,
                                int n, int stride, const double* x,
                                double* acc) {
  __m256d a0 = _mm256_loadu_pd(acc);
  __m256d a1 = _mm256_loadu_pd(acc + 4);
  __m256d a2 = _mm256_loadu_pd(acc + 8);
  __m256d a3 = _mm256_loadu_pd(acc + 12);
  for (int i = 0; i < n; ++i) {
    const __m256d av = _mm256_set1_pd(vals[i]);
    const double* xr = x + static_cast<std::size_t>(cols[i]) *
                               static_cast<std::size_t>(stride);
#if defined(__FMA__)
    a0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xr), a0);
    a1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xr + 4), a1);
    a2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xr + 8), a2);
    a3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xr + 12), a3);
#else
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(av, _mm256_loadu_pd(xr)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(av, _mm256_loadu_pd(xr + 4)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(av, _mm256_loadu_pd(xr + 8)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(av, _mm256_loadu_pd(xr + 12)));
#endif
  }
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  _mm256_storeu_pd(acc + 8, a2);
  _mm256_storeu_pd(acc + 12, a3);
}
#elif defined(TILESPMSPV_SIMD_SSE2)
inline void lane_panel16_update(const double* vals, const std::uint8_t* cols,
                                int n, int stride, const double* x,
                                double* acc) {
  __m128d a[8];
  for (int g = 0; g < 8; ++g) a[g] = _mm_loadu_pd(acc + 2 * g);
  for (int i = 0; i < n; ++i) {
    const __m128d av = _mm_set1_pd(vals[i]);
    const double* xr = x + static_cast<std::size_t>(cols[i]) *
                               static_cast<std::size_t>(stride);
    for (int g = 0; g < 8; ++g) {
      a[g] = _mm_add_pd(a[g], _mm_mul_pd(av, _mm_loadu_pd(xr + 2 * g)));
    }
  }
  for (int g = 0; g < 8; ++g) _mm_storeu_pd(acc + 2 * g, a[g]);
}
#else
inline void lane_panel16_update(const double* vals, const std::uint8_t* cols,
                                int n, int stride, const double* x,
                                double* acc) {
  lane_panel16_update_scalar(vals, cols, n, stride, x, acc);
}
#endif

}  // namespace tilespmspv::simd
