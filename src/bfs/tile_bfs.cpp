#include "bfs/tile_bfs.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "formats/tile_file.hpp"
#include "obs/counters.hpp"
#include "obs/shard_stats.hpp"
#include "obs/trace.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/bit_tile_graph.hpp"
#include "tile/bit_vector.hpp"
#include "tile/tile_chunks.hpp"
#include "util/bitkernels.hpp"
#include "util/timer.hpp"

namespace tilespmspv {

const char* bfs_kernel_name(BfsKernel k) {
  switch (k) {
    case BfsKernel::kPushCsc:
      return "Push-CSC";
    case BfsKernel::kPushCsr:
      return "Push-CSR";
    case BfsKernel::kPullCsc:
      return "Pull-CSC";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------
// Hoisted per-query scratch. All BFS state a level touches lives here so
// steady-state levels allocate nothing (mirrors SpmspvWorkspace).
//
// Invariants between runs (and between levels, where noted):
//   - x and y are all-zero (restored sparsely through the slot lists);
//   - every per-slot output array is all-zero (cleared while merging);
//   - the produced buckets are empty;
// only the visited mask m is dense state, cleared once per run.
// ---------------------------------------------------------------------
template <int NT>
struct BfsScratch {
  using Word = bitword_t<NT>;
  BitVector<NT> x;  // current frontier
  BitVector<NT> m;  // visited mask (includes the frontier)
  BitVector<NT> y;  // next frontier
  std::vector<index_t> slots;       // non-empty word slots of x
  std::vector<index_t> next_slots;  // non-empty word slots of y
  // Privatized output: during a level every kernel ORs plainly into its
  // pool slot's own copy of y's words, and appends a word index to the
  // slot's bucket when that copy turns nonzero. The caller then merges
  // the buckets into y serially, so no level loop needs an atomic. Costs
  // ceil(n/NT) words per pool slot. Cache-line aligned so one slot's
  // bucket pushes do not contend with another's.
  struct alignas(64) SlotOutput {
    std::vector<Word> words;
    std::vector<index_t> produced;
    void add(index_t s, Word bits) {
      if (words[s] == 0) produced.push_back(s);
      words[s] |= bits;
    }
  };
  std::vector<SlotOutput> outs;  // one per pool slot
  // Frontier slots that can relax an extracted edge (side pass).
  std::vector<index_t> side_slots;
  // Reused weighted-chunk boundaries (Push-CSC frontier slots, side pass).
  std::vector<index_t> k1_bounds;
  std::vector<index_t> side_bounds;

  // Cached shard partition of the matrix-driven chunk list (NUMA-sharded
  // pools): rebuilt when the chunk list identity or shard count changes.
  std::vector<index_t> shard_bounds;
  std::vector<std::uint64_t> shard_bytes;
  const index_t* shard_key = nullptr;
  int shard_ns = 0;

  void ensure(index_t n, std::size_t pool_slots) {
    if (x.n != n) {
      x = BitVector<NT>(n);
      m = BitVector<NT>(n);
      y = BitVector<NT>(n);
      slots.clear();
      next_slots.clear();
    }
    if (outs.size() < pool_slots) outs.resize(pool_slots);
    for (SlotOutput& o : outs) {
      if (o.words.size() != x.words.size()) {
        o.words.assign(x.words.size(), Word{0});
      }
    }
  }

  SlotOutput& slot_output() {
    return outs[static_cast<std::size_t>(ThreadPool::scratch_slot())];
  }
};

/// Local-row count at or above which the per-tile inner test switches from
/// the bit-scan loop to the full-block SIMD mask intersection
/// (and_broadcast_hits evaluates all NT rows at once, so it pays off only
/// when enough candidate rows remain). Both paths compute the same word.
template <int NT>
inline constexpr int kHitsKernelThreshold = NT / 8;

// ---------------------------------------------------------------------
// K1: Push-CSC (paper Alg. 5). Vector-driven: every non-empty frontier
// word walks its tile column in the CSC form; the OR of the column masks
// of its set bits is the contribution to the output tile row, masked by
// the visited vector and ORed into the pool slot's private output words
// (several frontier tiles can hit the same output tile row; the caller
// merges the slots after the level). Frontier slots are cut into chunks
// of roughly equal column weight (conversion-time csc_col_weight), so one
// hub column cannot serialize the level.
// ---------------------------------------------------------------------
template <int NT>
void kernel_push_csc(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                     ThreadPool* pool) {
  using Word = bitword_t<NT>;
  const std::vector<index_t>& slots = ws.slots;
  build_weighted_chunks_into(
      ws.k1_bounds, static_cast<index_t>(slots.size()), kChunkTargetWork,
      [&](index_t i) {
        return g.csc_col_weight.empty()
                   ? kChunkTargetWork / 4  // hand-built graph: 4-slot chunks
                   : g.csc_col_weight[slots[i]];
      });
  parallel_for(
      static_cast<index_t>(ws.k1_bounds.size()) - 1,
      [&](index_t c) {
        auto& out = ws.slot_output();
        std::uint64_t tiles_visited = 0;
        for (index_t si = ws.k1_bounds[c]; si < ws.k1_bounds[c + 1]; ++si) {
          const index_t s = slots[si];
          const Word xw = ws.x.words[s];
          for (offset_t t = g.csc_tile_ptr[s]; t < g.csc_tile_ptr[s + 1];
               ++t) {
            // Only columns that are both in the frontier and non-empty in
            // this tile contribute; the summary check skips the payload
            // for tiles untouched by the frontier.
            const Word summary = g.csc_col_summary[t];
            const Word active = xw & summary;
            if (active == 0) continue;
            ++tiles_visited;
            const index_t blk_y_rowid = g.csc_tile_row[t];
            const Word* col_masks = g.csc_mask(t);
            Word contrib = 0;
            if (active == summary && popcount(active) >= NT / 4) {
              // Every non-empty column of this reasonably dense tile is
              // in the frontier: the merge is a straight OR over the mask
              // block (SIMD). The density gate matters — or_reduce reads
              // all NT words, so on near-empty tiles the per-set-bit loop
              // below is cheaper.
              contrib = bitk::or_reduce(col_masks, NT);
            } else {
              for_each_set_bit(active,
                               [&](int lj) { contrib |= col_masks[lj]; });
            }
            const Word sum =
                contrib & static_cast<Word>(~ws.m.words[blk_y_rowid]);
            if (sum != 0) out.add(blk_y_rowid, sum);
          }
        }
        obs::counter_add(obs::Counter::kBfsTilesVisited, tiles_visited);
      },
      pool, /*chunk=*/1);
}

/// Matrix-driven dispatch boundaries: the conversion-time weighted chunks
/// when present, a uniform fallback for hand-built graphs.
template <int NT>
const std::vector<index_t>& csr_bounds(const BitTileGraph<NT>& g,
                                       std::vector<index_t>& fallback) {
  if (g.csr_chunk_ptr.size() >= 2) return g.csr_chunk_ptr;
  fallback = uniform_row_chunks(g.tile_n, 16);
  return fallback;
}

/// Shard partition of the matrix-driven chunk list for a NUMA-sharded
/// pool, weighted by mask payload bytes per chunk (see the SpMSpV
/// equivalent in core/tile_spmspv.hpp). Cached in the scratch; publishes
/// per-shard byte totals to the shard counters.
template <int NT>
const std::vector<index_t>& csr_shard_bounds(
    const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
    const std::vector<index_t>& bounds, int ns) {
  using Word = bitword_t<NT>;
  const auto nchunks = static_cast<index_t>(bounds.size()) - 1;
  const index_t* key = bounds.data();
  if (ws.shard_key != key || ws.shard_ns != ns || ws.shard_bounds.empty() ||
      ws.shard_bounds.back() != nchunks) {
    ShardPlan plan = make_shard_plan(nchunks, ns, [&](index_t c) {
      const offset_t t0 = g.csr_tile_ptr[bounds[c]];
      const offset_t t1 = g.csr_tile_ptr[bounds[c + 1]];
      return std::uint64_t{1} +
             static_cast<std::uint64_t>(t1 - t0) *
                 (static_cast<std::size_t>(NT) * sizeof(Word) +
                  sizeof(index_t) + sizeof(Word));
    });
    ws.shard_bounds = std::move(plan.chunk_bounds);
    ws.shard_bytes = std::move(plan.bytes);
    ws.shard_key = key;
    ws.shard_ns = ns;
  }
  for (int s = 0; s < ns; ++s) {
    obs::shard_set_bytes(s, ws.shard_bytes[static_cast<std::size_t>(s)]);
  }
  return ws.shard_bounds;
}

/// Dispatches chunk_body over [0, nchunks): shard-aware when the pool is
/// NUMA-sharded, the plain claim loop otherwise.
template <int NT, typename Body>
void dispatch_csr_chunks(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                         const std::vector<index_t>& bounds, ThreadPool* pool,
                         Body&& chunk_body) {
  const auto nchunks = static_cast<index_t>(bounds.size()) - 1;
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  if (p.num_shards() > 1 && nchunks > 1) {
    const std::vector<index_t>& sb =
        csr_shard_bounds(g, ws, bounds, p.num_shards());
    p.parallel_shard_ranges(sb, 1, [&](index_t begin, index_t end) {
      for (index_t c = begin; c < end; ++c) chunk_body(c);
    });
  } else {
    parallel_for(nchunks, chunk_body, pool, /*chunk=*/1);
  }
}

// ---------------------------------------------------------------------
// K2: Push-CSR (paper Alg. 6). Matrix-driven: one task per tile row; every
// tile whose frontier word is non-empty tests each still-unvisited local
// row against the frontier word (AND) and accumulates hits (OR). No
// atomics: each tile row is owned by exactly one task.
// ---------------------------------------------------------------------
template <int NT>
void kernel_push_csr(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                     ThreadPool* pool) {
  using Word = bitword_t<NT>;
  std::vector<index_t> fallback;
  const std::vector<index_t>& bounds = csr_bounds(g, fallback);
  dispatch_csr_chunks(
      g, ws, bounds, pool,
      [&](index_t c) {
        auto& out = ws.slot_output();
        std::uint64_t tiles_visited = 0;
        for (index_t tr = bounds[c]; tr < bounds[c + 1]; ++tr) {
          const Word unvisited =
              static_cast<Word>(~ws.m.words[tr]) & ws.m.valid_mask(tr);
          if (unvisited == 0) continue;  // whole tile row already done
          Word hits = 0;
          for (offset_t t = g.csr_tile_ptr[tr]; t < g.csr_tile_ptr[tr + 1];
               ++t) {
            const Word xw = ws.x.words[g.csr_tile_col[t]];
            if (xw == 0) continue;  // empty frontier tile: skip payload
            // Restrict to rows that are unvisited, not already found, and
            // actually present in this tile (summary word).
            const Word remaining =
                unvisited & static_cast<Word>(~hits) & g.csr_row_summary[t];
            if (remaining == 0) continue;
            ++tiles_visited;
            const Word* row_masks =
                &g.csr_masks[static_cast<std::size_t>(t) * NT];
            if (popcount(remaining) >= kHitsKernelThreshold<NT>) {
              hits |= static_cast<Word>(
                  bitk::and_broadcast_hits(row_masks, xw) & remaining);
            } else {
              for_each_set_bit(remaining, [&](int lr) {
                if (row_masks[lr] & xw) hits |= msb_bit<Word>(lr);
              });
            }
          }
          if (hits != 0) out.add(tr, hits);
        }
        obs::counter_add(obs::Counter::kBfsTilesVisited, tiles_visited);
        obs::shard_add_tiles(ThreadPool::current_shard(), tiles_visited);
      });
}

// ---------------------------------------------------------------------
// K3: Pull-CSC (paper Alg. 7). Unvisited-driven: each still-unvisited
// vertex scans its in-neighborhood masks against the visited vector and
// stops at the first hit (the paper's warp-synchronized early exit).
// Reads the row-oriented masks; identical to the paper's A1 columns on
// undirected graphs (see header note).
// ---------------------------------------------------------------------
template <int NT>
void kernel_pull_csc(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                     ThreadPool* pool) {
  using Word = bitword_t<NT>;
  std::vector<index_t> fallback;
  const std::vector<index_t>& bounds = csr_bounds(g, fallback);
  dispatch_csr_chunks(
      g, ws, bounds, pool,
      [&](index_t c) {
        auto& out = ws.slot_output();
        std::uint64_t tiles_visited = 0;
        for (index_t tr = bounds[c]; tr < bounds[c + 1]; ++tr) {
          Word remaining =
              static_cast<Word>(~ws.m.words[tr]) & ws.m.valid_mask(tr);
          if (remaining == 0) continue;
          Word hits = 0;
          for (offset_t t = g.csr_tile_ptr[tr];
               t < g.csr_tile_ptr[tr + 1] && remaining != 0; ++t) {
            const Word mw = ws.m.words[g.csr_tile_col[t]];
            if (mw == 0) continue;
            const Word cand = remaining & g.csr_row_summary[t];
            if (cand == 0) continue;
            ++tiles_visited;
            const Word* row_masks =
                &g.csr_masks[static_cast<std::size_t>(t) * NT];
            Word found;
            if (popcount(cand) >= kHitsKernelThreshold<NT>) {
              found = bitk::and_broadcast_hits(row_masks, mw) & cand;
            } else {
              found = 0;
              for_each_set_bit(cand, [&](int lu) {
                if (row_masks[lu] & mw) found |= msb_bit<Word>(lu);
              });
            }
            hits |= found;
            remaining &= static_cast<Word>(~found);  // early exit per vertex
          }
          if (hits != 0) out.add(tr, hits);
        }
        obs::counter_add(obs::Counter::kBfsTilesVisited, tiles_visited);
        obs::shard_add_tiles(ThreadPool::current_shard(), tiles_visited);
      });
}

// ---------------------------------------------------------------------
// Side pass for the extracted very-sparse part: frontier-driven expansion
// over the source-indexed edge list, merged into the same output vector.
// The side summary gates the frontier slot list first: only words whose
// frontier bits include a vertex with extracted out-edges are chunked (by
// side degree) and expanded, and a level with none runs no loop at all.
// Scan, schedule and dispatch cost thus follow the frontier's extracted
// out-edges rather than the frontier or the whole vector.
// ---------------------------------------------------------------------
template <int NT>
void side_edges_pass(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                     ThreadPool* pool) {
  using Word = bitword_t<NT>;
  if (g.side_dst.empty()) return;
  auto gated = [&](index_t s) {
    return static_cast<Word>(ws.x.words[s] & g.side_summary[s]);
  };
  std::vector<index_t>& slots = ws.side_slots;
  slots.clear();
  for (index_t s : ws.slots) {
    if (gated(s) != 0) slots.push_back(s);
  }
  if (slots.empty()) return;
  build_weighted_chunks_into(
      ws.side_bounds, static_cast<index_t>(slots.size()), kChunkTargetWork,
      [&](index_t i) {
        const index_t lo = slots[i] * NT;
        const index_t hi = std::min<index_t>(lo + NT, g.n);
        return offset_t{1} + g.side_ptr[hi] - g.side_ptr[lo];
      });
  parallel_for(
      static_cast<index_t>(ws.side_bounds.size()) - 1,
      [&](index_t c) {
        auto& out = ws.slot_output();
        std::uint64_t relaxed = 0;
        for (index_t si = ws.side_bounds[c]; si < ws.side_bounds[c + 1];
             ++si) {
          const index_t s = slots[si];
          for_each_set_bit(gated(s), [&](int b) {
            const index_t u = s * NT + b;
            relaxed +=
                static_cast<std::uint64_t>(g.side_ptr[u + 1] - g.side_ptr[u]);
            for (offset_t k = g.side_ptr[u]; k < g.side_ptr[u + 1]; ++k) {
              const index_t dst = g.side_dst[k];
              if (!ws.m.test(dst)) out.add(dst / NT, msb_bit<Word>(dst % NT));
            }
          });
        }
        obs::counter_add(obs::Counter::kBfsSideEdges, relaxed);
      },
      pool, /*chunk=*/1);
}

template <int NT>
BfsKernel select_kernel(const TileBfsConfig& cfg, index_t n,
                        index_t frontier_size, index_t frontier_words,
                        index_t total_words, index_t unvisited) {
  const bool k1 = cfg.kernel_mask & 1u;
  const bool k2 = cfg.kernel_mask & 2u;
  const bool k3 = cfg.kernel_mask & 4u;
  const double density = static_cast<double>(frontier_size) / n;
  const double unvisited_frac = static_cast<double>(unvisited) / n;
  if (k3 && unvisited_frac <= cfg.pull_unvisited_frac &&
      static_cast<double>(unvisited) <=
          cfg.pull_frontier_factor * static_cast<double>(frontier_size)) {
    return BfsKernel::kPullCsc;
  }
  if (k2 && density >= cfg.push_csr_sparsity &&
      static_cast<double>(frontier_words) >=
          cfg.push_csr_frontier_words_frac * static_cast<double>(total_words)) {
    return BfsKernel::kPushCsr;
  }
  if (k1) return BfsKernel::kPushCsc;
  if (k2) return BfsKernel::kPushCsr;
  if (k3) return BfsKernel::kPullCsc;
  throw std::invalid_argument("TileBfsConfig.kernel_mask must enable a kernel");
}

template <int NT>
BfsResult run_bfs(const BitTileGraph<NT>& g, index_t source,
                  const TileBfsConfig& cfg, ThreadPool* pool,
                  BfsScratch<NT>& ws) {
  using Word = bitword_t<NT>;
  if (source < 0 || source >= g.n) {
    throw std::out_of_range("TileBfs::run: source " + std::to_string(source) +
                            " outside [0, " + std::to_string(g.n) + ")");
  }
  Timer total;
  BfsResult result;
  result.levels.assign(g.n, -1);
  result.levels[source] = 0;

  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  ws.ensure(g.n, p.size());
  ws.m.clear();  // the one dense per-run reset; everything else is sparse
  ws.x.set(source);
  ws.m.set(source);
  ws.slots.clear();
  ws.slots.push_back(source / NT);
  index_t visited = 1;
  index_t frontier_size = 1;

  for (int level = 1;; ++level) {
    const index_t unvisited = g.n - visited;
    if (frontier_size == 0 || unvisited == 0) break;
    const auto frontier_words = static_cast<index_t>(ws.slots.size());
    const BfsKernel kernel = select_kernel<NT>(
        cfg, g.n, frontier_size, frontier_words, ws.x.num_words(), unvisited);

    Timer iter;
    obs::TraceSpan span("bfs/iteration", "bfs", bfs_kernel_name(kernel));
    obs::counter_add(obs::Counter::kBfsFrontierWords,
                     static_cast<std::uint64_t>(frontier_words));
    switch (kernel) {
      case BfsKernel::kPushCsc:
        obs::counter_add(obs::Counter::kBfsIterPushCsc, 1);
        kernel_push_csc(g, ws, pool);
        break;
      case BfsKernel::kPushCsr:
        obs::counter_add(obs::Counter::kBfsIterPushCsr, 1);
        kernel_push_csr(g, ws, pool);
        break;
      case BfsKernel::kPullCsc:
        obs::counter_add(obs::Counter::kBfsIterPullCsc, 1);
        kernel_pull_csc(g, ws, pool);
        break;
    }
    side_edges_pass(g, ws, pool);

    // Merge the per-slot outputs into y, serially and in slot order; a
    // word joins the next slot list the first time it turns nonzero in y.
    ws.next_slots.clear();
    for (auto& o : ws.outs) {
      for (index_t s : o.produced) {
        if (ws.y.words[s] == 0) ws.next_slots.push_back(s);
        ws.y.words[s] |= o.words[s];
        o.words[s] = 0;
      }
      o.produced.clear();
    }

    // Incremental level tally: assign levels and fold the new frontier
    // into the visited mask over the produced words only — no re-scan of
    // the full vectors. Slots are unique (deduplicated by the merge).
    auto tally = [&](index_t s) {
      const Word w = ws.y.words[s];
      for_each_set_bit(w, [&](int b) { result.levels[s * NT + b] = level; });
      ws.m.words[s] |= w;
      return static_cast<index_t>(popcount(w));
    };
    index_t discovered = 0;
    if (ws.next_slots.size() >=
        static_cast<std::size_t>(ws.y.num_words()) / 8) {
      // Dense level: a SIMD scan of y rebuilds the list in slot order
      // (better locality downstream than scattered bucket order), and the
      // tally runs on the pool. Chunks touch disjoint words; the only
      // shared state is the reduction sum.
      ws.next_slots.resize(static_cast<std::size_t>(ws.y.num_words()));
      const index_t k = bitk::collect_nonzero(
          ws.y.words.data(), ws.y.num_words(), 0, ws.next_slots.data());
      ws.next_slots.resize(static_cast<std::size_t>(k));
      discovered = parallel_reduce<index_t>(
          k, index_t{0}, [&](index_t i) { return tally(ws.next_slots[i]); },
          [](index_t a, index_t b) { return a + b; }, pool, /*chunk=*/64);
    } else {
      // Sparse level: the caller tallies the few produced words itself;
      // a pool loop would cost more than the work.
      for (index_t s : ws.next_slots) discovered += tally(s);
    }
    obs::counter_add(obs::Counter::kBfsProducedWords,
                     static_cast<std::uint64_t>(ws.next_slots.size()));

    if (cfg.record_iterations) {
      BfsIterationLog log{level,
                          kernel,
                          frontier_size,
                          unvisited,
                          static_cast<double>(frontier_size) / g.n,
                          static_cast<double>(unvisited) / g.n,
                          iter.elapsed_ms(),
                          frontier_words};
      result.iterations.push_back(log);
    }
    if (discovered == 0) break;
    visited += discovered;
    frontier_size = discovered;
    // Ping-pong: y becomes the frontier; the old frontier's words (now in
    // y after the swap) are zeroed sparsely through the old slot list,
    // restoring y's all-zero invariant without a dense clear.
    std::swap(ws.x.words, ws.y.words);
    for (index_t s : ws.slots) ws.y.words[s] = 0;
    std::swap(ws.slots, ws.next_slots);
  }

  // Restore the workspace invariants for the next run: x goes back to
  // all-zero via its slot list (y and the per-slot arrays already are).
  for (index_t s : ws.slots) ws.x.words[s] = 0;
  ws.slots.clear();
  ws.next_slots.clear();
  result.total_ms = total.elapsed_ms();
  return result;
}

}  // namespace

struct BfsWorkspace::Impl {
  BfsScratch<16> s16;
  BfsScratch<32> s32;
  BfsScratch<64> s64;

  template <int NT>
  BfsScratch<NT>& get() {
    if constexpr (NT == 16) {
      return s16;
    } else if constexpr (NT == 32) {
      return s32;
    } else {
      return s64;
    }
  }
};

BfsWorkspace::BfsWorkspace() : impl_(std::make_unique<Impl>()) {}
BfsWorkspace::~BfsWorkspace() = default;
BfsWorkspace::BfsWorkspace(BfsWorkspace&&) noexcept = default;
BfsWorkspace& BfsWorkspace::operator=(BfsWorkspace&&) noexcept = default;

struct TileBfs::Impl {
  TileBfsConfig cfg;
  ThreadPool* pool = nullptr;
  int nt = 32;
  // Exactly one of the graphs is populated, per the order rule (or the
  // forced_tile_size override).
  std::unique_ptr<BitTileGraph<16>> g16;
  std::unique_ptr<BitTileGraph<32>> g32;
  std::unique_ptr<BitTileGraph<64>> g64;
};

TileBfs::TileBfs(const Csr<value_t>& a, TileBfsConfig cfg, ThreadPool* pool)
    : impl_(std::make_unique<Impl>()) {
  if (a.rows != a.cols) {
    throw std::invalid_argument("TileBfs requires a square adjacency matrix");
  }
  if ((cfg.kernel_mask & 7u) == 0) {
    throw std::invalid_argument("TileBfsConfig.kernel_mask must enable a kernel");
  }
  const int nt = cfg.forced_tile_size != 0
                     ? cfg.forced_tile_size
                     : (a.rows > cfg.order_threshold ? 64 : 32);
  if (nt != 16 && nt != 32 && nt != 64) {
    throw std::invalid_argument(
        "TileBfsConfig.forced_tile_size must be 0, 16, 32 or 64");
  }
  impl_->cfg = cfg;
  impl_->pool = pool;
  impl_->nt = nt;
  Timer t;
  obs::TraceSpan span("bfs/preprocess", "convert");
  switch (nt) {
    case 16:
      impl_->g16 = std::make_unique<BitTileGraph<16>>(
          BitTileGraph<16>::from_csr(a, cfg.extract_threshold, true, pool));
      break;
    case 32:
      impl_->g32 = std::make_unique<BitTileGraph<32>>(
          BitTileGraph<32>::from_csr(a, cfg.extract_threshold, true, pool));
      break;
    default:
      impl_->g64 = std::make_unique<BitTileGraph<64>>(
          BitTileGraph<64>::from_csr(a, cfg.extract_threshold, true, pool));
      break;
  }
  preprocess_ms_ = t.elapsed_ms();
}

TileBfs::TileBfs(const std::string& graph_path, TileBfsConfig cfg,
                 ThreadPool* pool)
    : impl_(std::make_unique<Impl>()) {
  if ((cfg.kernel_mask & 7u) == 0) {
    throw std::invalid_argument("TileBfsConfig.kernel_mask must enable a kernel");
  }
  const TileFileHeader header = read_tile_file_header(graph_path);
  if (header.kind != static_cast<std::uint32_t>(TileFileKind::kBitTileGraph)) {
    throw std::invalid_argument("TileBfs: " + graph_path +
                                " is not a graph tile file");
  }
  impl_->cfg = cfg;
  impl_->pool = pool;
  impl_->nt = static_cast<int>(header.nt);
  Timer t;
  obs::TraceSpan span("bfs/map_graph", "convert");
  switch (header.nt) {
    case 16:
      impl_->g16 = std::make_unique<BitTileGraph<16>>(
          map_bit_tile_graph_file<16>(graph_path));
      break;
    case 32:
      impl_->g32 = std::make_unique<BitTileGraph<32>>(
          map_bit_tile_graph_file<32>(graph_path));
      break;
    case 64:
      impl_->g64 = std::make_unique<BitTileGraph<64>>(
          map_bit_tile_graph_file<64>(graph_path));
      break;
    default:
      throw std::invalid_argument("TileBfs: unsupported graph tile size " +
                                  std::to_string(header.nt));
  }
  preprocess_ms_ = t.elapsed_ms();
}

TileBfs::~TileBfs() = default;
TileBfs::TileBfs(TileBfs&&) noexcept = default;
TileBfs& TileBfs::operator=(TileBfs&&) noexcept = default;

BfsResult TileBfs::run(index_t source) const {
  BfsWorkspace ws;
  return run(source, ws);
}

BfsResult TileBfs::run(index_t source, BfsWorkspace& ws) const {
  if (impl_->g64) {
    return run_bfs(*impl_->g64, source, impl_->cfg, impl_->pool,
                   ws.impl_->get<64>());
  }
  if (impl_->g32) {
    return run_bfs(*impl_->g32, source, impl_->cfg, impl_->pool,
                   ws.impl_->get<32>());
  }
  return run_bfs(*impl_->g16, source, impl_->cfg, impl_->pool,
                 ws.impl_->get<16>());
}

int TileBfs::tile_size() const { return impl_->nt; }

offset_t TileBfs::edges() const {
  if (impl_->g64) return impl_->g64->edges;
  if (impl_->g32) return impl_->g32->edges;
  return impl_->g16->edges;
}

index_t TileBfs::num_tiles() const {
  if (impl_->g64) return impl_->g64->num_tiles();
  if (impl_->g32) return impl_->g32->num_tiles();
  return impl_->g16->num_tiles();
}

offset_t TileBfs::side_edge_count() const {
  if (impl_->g64) return impl_->g64->side_edge_count();
  if (impl_->g32) return impl_->g32->side_edge_count();
  return impl_->g16->side_edge_count();
}

}  // namespace tilespmspv
