// GraphBLAS-style semirings. The paper positions SpMSpV as a GraphBLAS /
// CombBLAS primitive, where the multiply is defined over an arbitrary
// semiring (add, mul, identity); TileBFS itself is the (OR, AND) instance
// specialized to bitmasks. A semiring here is a policy type: the CSC-form
// kernel (tile_spmspv_csc in core/tile_spmspv.hpp) takes one as a
// template parameter, PlusTimes by default, so algorithms like SSSP
// (min-plus) and reachability (or-and) run on the same tiled storage and
// the same owner-computes apply as the numeric multiply.
#pragma once

#include <algorithm>
#include <limits>

namespace tilespmspv {

/// Conventional arithmetic: the numeric SpMSpV of the paper's evaluation.
template <typename T>
struct PlusTimes {
  using value_type = T;
  static constexpr T zero() { return T{}; }
  static constexpr T add(T a, T b) { return a + b; }
  static constexpr T mul(T a, T b) { return a * b; }
};

/// Tropical semiring: shortest paths. add = min, mul = +, identity = inf.
template <typename T>
struct MinPlus {
  using value_type = T;
  static constexpr T zero() { return std::numeric_limits<T>::infinity(); }
  static constexpr T add(T a, T b) { return std::min(a, b); }
  static constexpr T mul(T a, T b) { return a + b; }
};

/// Boolean semiring: reachability. add = OR, mul = AND, identity = false.
/// Values are stored as the numeric 0/1 so the same containers serve.
template <typename T>
struct OrAnd {
  using value_type = T;
  static constexpr T zero() { return T{0}; }
  static constexpr T add(T a, T b) { return (a != T{0} || b != T{0}) ? T{1} : T{0}; }
  static constexpr T mul(T a, T b) { return (a != T{0} && b != T{0}) ? T{1} : T{0}; }
};

/// Max-times: widest-path / maximum-reliability problems.
template <typename T>
struct MaxTimes {
  using value_type = T;
  static constexpr T zero() { return T{0}; }
  static constexpr T add(T a, T b) { return std::max(a, b); }
  static constexpr T mul(T a, T b) { return a * b; }
};

}  // namespace tilespmspv
