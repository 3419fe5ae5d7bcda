#pragma once

#include "parallel/atomics.hpp"

namespace tilespmspv {

// Seeded violation: a float atomic_add under src/core, whose summation
// order follows thread timing.
inline void scatter(double* y, const int* rows, const double* vals, int n) {
  for (int i = 0; i < n; ++i) atomic_add(&y[rows[i]], vals[i]);
}

}  // namespace tilespmspv
