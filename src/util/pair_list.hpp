// PairList — one parallel task's private (index, value) list.
#pragma once

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace tilespmspv::detail {

/// A growable (index, value) list that owns its 64-byte cache line. Kernels
/// keep one per task in a std::vector<PairList<T>>, and neighbouring tasks
/// fill and clear neighbouring lists at once. Nested vectors would put
/// their 24-byte headers on shared lines, so every push_back or clear would
/// move a line between cores; that made the CSC form's owner apply slower
/// on 4 threads than on 1 (EXPERIMENTS.md, "Per-task lists on their own
/// cache lines"). Capacity is kept across clear().
template <typename T>
struct alignas(64) PairList {
  std::vector<index_t> idx;
  std::vector<T> vals;

  std::size_t size() const { return idx.size(); }
  void push(index_t i, T v) {
    idx.push_back(i);
    vals.push_back(v);
  }
  void clear() {
    idx.clear();
    vals.clear();
  }
};

static_assert(alignof(PairList<double>) == 64 &&
                  sizeof(PairList<double>) == 64,
              "PairList<double> must fill exactly one cache line");
static_assert(alignof(PairList<index_t>) == 64 &&
                  sizeof(PairList<index_t>) == 64,
              "PairList<index_t> must fill exactly one cache line");

}  // namespace tilespmspv::detail
