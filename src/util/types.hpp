// Common scalar and index types used across the library.
//
// The library follows the paper's conventions: matrices are indexed with
// 32-bit signed integers (large enough for every SuiteSparse matrix and for
// the synthetic suite) and values default to double precision.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace tilespmspv {

/// Row/column index type. Signed so that -1 can serve as the "empty tile"
/// sentinel used by the tiled vector format (paper Fig. 3).
using index_t = std::int32_t;

/// Offset type for nonzero positions (CSR row pointers etc.). 64-bit so
/// matrices with more than 2^31 nonzeros are representable.
using offset_t = std::int64_t;

/// Default numeric value type.
using value_t = double;

/// Sentinel marking an empty tile slot in tiled vector index arrays.
inline constexpr index_t kEmptyTile = -1;

/// Ceiling division for non-negative integers. Written without the usual
/// (a + b - 1) so a near-max `a` (e.g. header dims from an untrusted
/// stream) cannot overflow.
template <typename T>
constexpr T ceil_div(T a, T b) {
  return a / b + (a % b != T{0} ? T{1} : T{0});
}

/// Rounds `a` up to the next multiple of `b`.
template <typename T>
constexpr T round_up(T a, T b) {
  return ceil_div(a, b) * b;
}

/// floor(a / d) for 0 <= a < 2^31 by one multiply and shift, for loops that
/// divide many indices by one divisor 1 <= d < 2^31. With s = 31 +
/// ceil(log2 d) and m = ceil(2^s / d) <= 2^32, a·m / 2^s exceeds a / d by
/// less than a / 2^s < 1/d, so the floor is exact, and a·m < 2^63.
struct IndexDiv {
  int s;
  std::uint64_t m;

  explicit IndexDiv(index_t d)
      : s(31 + std::bit_width(static_cast<std::uint32_t>(d - 1))),
        m(((std::uint64_t{1} << s) + static_cast<std::uint64_t>(d) - 1) /
          static_cast<std::uint64_t>(d)) {}

  index_t operator()(index_t a) const {
    return static_cast<index_t>((static_cast<std::uint64_t>(a) * m) >> s);
  }
};

}  // namespace tilespmspv
