#pragma once

#include <vector>

namespace tilespmspv {

// Seeded violation: per-task lists as a nested vector under src/core. Tasks
// that fill neighbouring lists write vector headers 24 bytes apart, on one
// cache line.
template <typename T>
struct OwnerLists {
  std::vector<std::vector<T>> prods;  // list rg·owners + o

  void push(std::size_t list, T prod) { prods[list].push_back(prod); }
};

}  // namespace tilespmspv
