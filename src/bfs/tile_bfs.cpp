#include "bfs/tile_bfs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "formats/tile_file.hpp"
#include "obs/counters.hpp"
#include "obs/shard_stats.hpp"
#include "obs/trace.hpp"
#include "parallel/arena.hpp"
#include "parallel/thread_pool.hpp"
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
// A traversal runs as one pool team (ThreadPool::lead_team) with two
// phases per level, each split into one share per pool slot:
//   - expand: share i runs its part of the level's kernel and the side
//     pass, ORing into its own output words;
//   - merge and tally: share i owns a word range of y, planned per level
//     to cover what expand share i mostly produced. It reads only the
//     produced words the expand shares bucketed for its range, ORs them
//     into y, writes levels and m, and records its part of the next
//     frontier.
// The frontier word list is therefore kept per owner (one Segment each),
// and the owner ranges rise with the owner, so the segments in owner
// order list the frontier roughly in word order.
//
// Invariants between runs (and between levels, where noted):
//   - x and y are all-zero (restored sparsely through the segments);
//   - every share's output array is all-zero (cleared while merging);
//   - the produced buckets and the segments are empty;
// only the visited mask m is dense state, cleared once per run.
// ---------------------------------------------------------------------
template <int NT>
struct BfsScratch {
  using Word = bitword_t<NT>;
  BitVector<NT> x;  // current frontier
  BitVector<NT> m;  // visited mask (includes the frontier)
  BitVector<NT> y;  // next frontier
  int shares = 0;   // pool slots the scratch is laid out for
  // Owner ranges of y for the current level: share o owns words
  // [owner_bounds[o], owner_bounds[o + 1]).
  std::vector<index_t> owner_bounds;

  // One owner's part of a frontier: its words in discovery order, the
  // exclusive prefix of their Push-CSC weights (conversion-time
  // csc_col_weight) and their total, the lower owners' segments' total
  // weight and word count, and how many vertices the owner discovered.
  // Cache-line aligned: each owner appends to its own segment while
  // merging.
  struct alignas(64) Segment {
    std::vector<index_t> words;
    std::vector<offset_t> prefix;
    offset_t weight = 0;
    offset_t base = 0;
    index_t first = 0;  // frontier position of words[0]
    index_t found = 0;
    index_t end() const { return first + static_cast<index_t>(words.size()); }
    void clear() {
      words.clear();
      prefix.clear();
      weight = 0;
    }
    void weigh(offset_t w) {  // appends the next word's prefix
      prefix.push_back(weight);
      weight += w;
    }
  };
  std::vector<Segment> cur;   // frontier x, per owner
  std::vector<Segment> next;  // frontier y being built, per owner
  offset_t frontier_weight = 0;
  // Frontier-driven home ranges, in units of column weight: the frontier
  // words, taken in owner order, are laid end to end by weight, and share
  // i's home slice is weights [home_bounds[i], home_bounds[i + 1]) — about
  // 1 / shares of the frontier's column weight each.
  std::vector<offset_t> home_bounds;

  // Privatized output: during the expand phase each share ORs plainly into
  // its own copy of y's words, and buckets a word index by owner when that
  // copy turns nonzero. Costs ceil(n/NT) words per share. Buckets are
  // cache-line aligned: share i pushes to its buckets while expanding and
  // each owner clears its own bucket of every share while merging.
  struct alignas(64) Bucket {
    std::vector<index_t> words;
  };
  struct alignas(64) ShareOutput {
    std::vector<Word> words;
    std::vector<Bucket> produced;  // per owner
  };
  std::vector<ShareOutput> outs;

  // Conversion-time tile-row chunks per share for the matrix-driven
  // kernels (share i runs chunks [share_chunks[i], share_chunks[i+1])),
  // and the shard partition of those chunks on a NUMA-sharded pool
  // (cached: rebuilt when the chunk list identity or shard count changes).
  std::vector<index_t> share_chunks;
  std::vector<index_t> fallback_chunks;
  std::vector<index_t> shard_bounds;
  std::vector<std::uint64_t> shard_bytes;
  const index_t* shard_key = nullptr;
  int shard_ns = 0;

  void ensure(index_t n, int pool_slots) {
    if (x.n != n) {
      x = BitVector<NT>(n);
      m = BitVector<NT>(n);
      y = BitVector<NT>(n);
      shares = 0;
    }
    if (shares == pool_slots) return;
    shares = pool_slots;
    const auto slots = static_cast<std::size_t>(pool_slots);
    owner_bounds.assign(slots + 1, 0);
    home_bounds.assign(slots + 1, 0);
    cur.assign(slots, Segment{});
    next.assign(slots, Segment{});

    outs.resize(slots);
    for (ShareOutput& o : outs) {
      o.words.assign(x.words.size(), Word{0});
      o.produced.assign(slots, {});
    }
  }

  std::size_t owner_of(index_t s) const {
    return static_cast<std::size_t>(
        std::upper_bound(owner_bounds.begin() + 1, owner_bounds.end() - 1, s) -
        (owner_bounds.begin() + 1));
  }

  void add(ShareOutput& out, index_t s, Word bits) {
    if (out.words[s] == 0) out.produced[owner_of(s)].words.push_back(s);
    out.words[s] |= bits;
  }
};

/// Push-CSC scheduling weight of frontier word s: its tile column's
/// conversion-time weight, or a constant on hand-built graphs.
template <int NT>
offset_t column_weight(const BitTileGraph<NT>& g, index_t s) {
  return g.csc_col_weight.empty() ? 1 : g.csc_col_weight[s];
}

/// Runs fn(s) for the frontier words whose exclusive weight prefix lies in
/// [lo, hi), in owner order.
template <int NT, typename Fn>
void for_each_frontier_word(const BfsScratch<NT>& ws, offset_t lo,
                            offset_t hi, Fn&& fn) {
  using Segment = typename BfsScratch<NT>::Segment;
  auto seg = std::partition_point(
      ws.cur.begin(), ws.cur.end(),
      [&](const Segment& sg) { return sg.base + sg.weight <= lo; });
  for (; seg != ws.cur.end() && seg->base < hi; ++seg) {
    auto j = static_cast<std::size_t>(
        std::lower_bound(seg->prefix.begin(), seg->prefix.end(),
                         lo - seg->base) -
        seg->prefix.begin());
    for (; j < seg->words.size() && seg->base + seg->prefix[j] < hi; ++j) {
      fn(seg->words[j]);
    }
  }
}

struct FrontierTotals {
  index_t words = 0;
  offset_t weight = 0;
  index_t found = 0;
};

/// Lays a frontier's segments end to end in owner order (each segment's
/// first position and base weight) and returns the totals.
template <typename Segment>
FrontierTotals lay_out(std::vector<Segment>& segments) {
  FrontierTotals t;
  for (Segment& seg : segments) {
    seg.first = t.words;
    seg.base = t.weight;
    t.words += static_cast<index_t>(seg.words.size());
    t.weight += seg.weight;
    t.found += seg.found;
  }
  return t;
}

/// Frontier word at position pos of the segments in owner order.
template <int NT>
index_t frontier_word_at(const BfsScratch<NT>& ws, index_t pos) {
  using Segment = typename BfsScratch<NT>::Segment;
  const auto seg = std::partition_point(
      ws.cur.begin(), ws.cur.end(),
      [&](const Segment& sg) { return sg.end() <= pos; });
  return seg->words[static_cast<std::size_t>(pos - seg->first)];
}

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
// the visited vector and ORed into the share's private output words
// (several frontier tiles can hit the same output tile row; the owners
// merge them after the level).
// ---------------------------------------------------------------------
template <int NT>
void push_csc_words(const BitTileGraph<NT>& g, BfsScratch<NT>& ws, int i,
                    offset_t lo, offset_t hi) {
  using Word = bitword_t<NT>;
  auto& out = ws.outs[static_cast<std::size_t>(i)];
  std::uint64_t tiles_visited = 0;
  for_each_frontier_word(ws, lo, hi, [&](index_t s) {
    const Word xw = ws.x.words[s];
    for (offset_t t = g.csc_tile_ptr[s]; t < g.csc_tile_ptr[s + 1]; ++t) {
      // Only columns that are both in the frontier and non-empty in this
      // tile contribute; the summary check skips the payload for tiles
      // untouched by the frontier.
      const Word summary = g.csc_col_summary[t];
      const Word active = xw & summary;
      if (active == 0) continue;
      ++tiles_visited;
      const index_t blk_y_rowid = g.csc_tile_row[t];
      const Word* col_masks = g.csc_mask(t);
      Word contrib = 0;
      if (active == summary && popcount(active) >= NT / 4) {
        // Every non-empty column of this reasonably dense tile is in the
        // frontier: the merge is a straight OR over the mask block (SIMD).
        // The density gate matters — or_reduce reads all NT words, so on
        // near-empty tiles the per-set-bit loop below is cheaper.
        contrib = bitk::or_reduce(col_masks, NT);
      } else {
        for_each_set_bit(active, [&](int lj) { contrib |= col_masks[lj]; });
      }
      const Word sum = contrib & static_cast<Word>(~ws.m.words[blk_y_rowid]);
      if (sum != 0) ws.add(out, blk_y_rowid, sum);
    }
  });
  obs::counter_add(obs::Counter::kBfsTilesVisited, tiles_visited);
}

/// Matrix-driven chunk boundaries: the conversion-time weighted chunks
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

/// Splits the matrix-driven chunks into one contiguous share per pool
/// slot. On a NUMA-sharded pool, slot i's share is its part of its home
/// shard's chunks (a shard no slot calls home goes to the last share
/// before it), so the same slot keeps traversing the same shard's tiles;
/// otherwise the chunks are split evenly (they are already weight-balanced).
template <int NT>
void plan_share_chunks(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                       const std::vector<index_t>& bounds,
                       const ThreadPool& p) {
  const auto nchunks = static_cast<index_t>(bounds.size()) - 1;
  const int shares = ws.shares;
  ws.share_chunks.assign(static_cast<std::size_t>(shares) + 1, nchunks);
  const int ns = p.num_shards();
  if (ns > 1 && nchunks > 1) {
    const std::vector<index_t>& sb = csr_shard_bounds(g, ws, bounds, ns);
    for (int i = 0; i < shares;) {
      const int h = p.home_shard(i);
      int q = 1;  // slots [i, i + q) share home shard h
      while (i + q < shares && p.home_shard(i + q) == h) ++q;
      const index_t b = sb[static_cast<std::size_t>(h)];
      const index_t len = sb[static_cast<std::size_t>(h) + 1] - b;
      for (int r = 0; r < q; ++r) {
        ws.share_chunks[static_cast<std::size_t>(i + r)] =
            b + static_cast<index_t>(static_cast<offset_t>(len) * r / q);
      }
      i += q;
    }
  } else {
    for (int i = 0; i < shares; ++i) {
      ws.share_chunks[static_cast<std::size_t>(i)] = static_cast<index_t>(
          static_cast<offset_t>(nchunks) * i / shares);
    }
  }
}

/// Runs chunk_body(c, shard) for the matrix-driven chunks [b, e), with the
/// data shard each chunk belongs to (0 on an unsharded pool), and records
/// per-shard wall time on a sharded pool.
template <int NT, typename Body>
void run_chunks(const BfsScratch<NT>& ws, int ns, index_t b, index_t e,
                Body&& chunk_body) {
  if (ns <= 1) {
    for (index_t c = b; c < e; ++c) chunk_body(c, 0);
    return;
  }
  const std::vector<index_t>& sb = ws.shard_bounds;
  for (index_t c = b; c < e; ++c) {
    const int h =
        static_cast<int>(std::upper_bound(sb.begin(), sb.end(), c) -
                         sb.begin()) -
        1;
    const auto t0 = std::chrono::steady_clock::now();
    chunk_body(c, h);
    const std::chrono::duration<double, std::milli> dt =
        std::chrono::steady_clock::now() - t0;
    obs::shard_add_ms(h, dt.count());
  }
}

// ---------------------------------------------------------------------
// K2: Push-CSR (paper Alg. 6). Matrix-driven: every tile whose frontier
// word is non-empty tests each still-unvisited local row against the
// frontier word (AND) and accumulates hits (OR). Each tile row belongs to
// exactly one share.
// ---------------------------------------------------------------------
template <int NT>
void push_csr_chunks(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                     const std::vector<index_t>& bounds, int ns, int i,
                     index_t b, index_t e) {
  using Word = bitword_t<NT>;
  auto& out = ws.outs[static_cast<std::size_t>(i)];
  run_chunks(ws, ns, b, e, [&](index_t c, int shard) {
    std::uint64_t tiles_visited = 0;
    for (index_t tr = bounds[c]; tr < bounds[c + 1]; ++tr) {
      const Word unvisited =
          static_cast<Word>(~ws.m.words[tr]) & ws.m.valid_mask(tr);
      if (unvisited == 0) continue;  // whole tile row already done
      Word hits = 0;
      for (offset_t t = g.csr_tile_ptr[tr]; t < g.csr_tile_ptr[tr + 1]; ++t) {
        const Word xw = ws.x.words[g.csr_tile_col[t]];
        if (xw == 0) continue;  // empty frontier tile: skip payload
        // Restrict to rows that are unvisited, not already found, and
        // actually present in this tile (summary word).
        const Word remaining =
            unvisited & static_cast<Word>(~hits) & g.csr_row_summary[t];
        if (remaining == 0) continue;
        ++tiles_visited;
        const Word* row_masks = &g.csr_masks[static_cast<std::size_t>(t) * NT];
        if (popcount(remaining) >= kHitsKernelThreshold<NT>) {
          hits |= static_cast<Word>(bitk::and_broadcast_hits(row_masks, xw) &
                                    remaining);
        } else {
          for_each_set_bit(remaining, [&](int lr) {
            if (row_masks[lr] & xw) hits |= msb_bit<Word>(lr);
          });
        }
      }
      if (hits != 0) ws.add(out, tr, hits);
    }
    obs::counter_add(obs::Counter::kBfsTilesVisited, tiles_visited);
    obs::shard_add_tiles(shard, tiles_visited);
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
void pull_csc_chunks(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                     const std::vector<index_t>& bounds, int ns, int i,
                     index_t b, index_t e) {
  using Word = bitword_t<NT>;
  auto& out = ws.outs[static_cast<std::size_t>(i)];
  run_chunks(ws, ns, b, e, [&](index_t c, int shard) {
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
        const Word* row_masks = &g.csr_masks[static_cast<std::size_t>(t) * NT];
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
      if (hits != 0) ws.add(out, tr, hits);
    }
    obs::counter_add(obs::Counter::kBfsTilesVisited, tiles_visited);
    obs::shard_add_tiles(shard, tiles_visited);
  });
}

// ---------------------------------------------------------------------
// Side pass for the extracted very-sparse part: frontier-driven expansion
// over the source-indexed edge list, merged into the same output words.
// It walks the frontier words like Push-CSC (home slices, then stolen
// steps); the side summary skips words none of whose frontier vertices has
// an extracted out-edge, so the pass costs one AND per frontier word plus
// the frontier's extracted out-edges.
// ---------------------------------------------------------------------
template <int NT>
void side_words(const BitTileGraph<NT>& g, BfsScratch<NT>& ws, int i,
                offset_t lo, offset_t hi) {
  using Word = bitword_t<NT>;
  if (g.side_dst.empty()) return;
  auto& out = ws.outs[static_cast<std::size_t>(i)];
  std::uint64_t relaxed = 0;
  for_each_frontier_word(ws, lo, hi, [&](index_t s) {
    const Word gated = ws.x.words[s] & g.side_summary[s];
    for_each_set_bit(gated, [&](int b) {
      const index_t u = s * NT + b;
      relaxed += static_cast<std::uint64_t>(g.side_ptr[u + 1] - g.side_ptr[u]);
      for (offset_t k = g.side_ptr[u]; k < g.side_ptr[u + 1]; ++k) {
        const index_t dst = g.side_dst[k];
        if (!ws.m.test(dst)) ws.add(out, dst / NT, msb_bit<Word>(dst % NT));
      }
    });
  });
  obs::counter_add(obs::Counter::kBfsSideEdges, relaxed);
}

// ---------------------------------------------------------------------
// Merge and tally, owner-computes: share o owns y's words
// [owner_bounds[o], owner_bounds[o + 1]). It clears the finished
// frontier's words it recorded a level ago (x's segment o), ORs the words
// every expand share bucketed for its range into y (a word joins the next
// frontier the first time it turns nonzero in y), then assigns levels,
// folds the new words into the visited mask and counts what it found. No
// two owners write the same word of x, y or m.
// ---------------------------------------------------------------------
template <int NT>
void merge_tally_share(const BitTileGraph<NT>& g, BfsScratch<NT>& ws,
                       int level, std::vector<index_t>& levels, int o) {
  using Word = bitword_t<NT>;
  const auto oi = static_cast<std::size_t>(o);
  for (index_t s : ws.cur[oi].words) ws.x.words[s] = 0;
  auto& seg = ws.next[oi];
  seg.clear();
  for (auto& out : ws.outs) {
    std::vector<index_t>& bucket = out.produced[oi].words;
    for (index_t s : bucket) {
      if (ws.y.words[s] == 0) seg.words.push_back(s);
      ws.y.words[s] |= out.words[s];
      out.words[s] = 0;
    }
    bucket.clear();
  }
  index_t found = 0;
  for (index_t s : seg.words) {
    const Word w = ws.y.words[s];
    for_each_set_bit(w, [&](int b) { levels[s * NT + b] = level; });
    ws.m.words[s] |= w;
    found += static_cast<index_t>(popcount(w));
    seg.weigh(column_weight(g, s));
  }
  seg.found = found;
}

/// Plans the owner ranges of y for a level so that each share mostly
/// merges what it produced itself, on the same pool slot: a matrix-driven
/// share owns the tile rows of its home chunks, and on a Push-CSC level
/// owner i's range starts at the (i / shares) quantile of the frontier's
/// words (a column's output tile rows sit near the column on mesh and
/// banded graphs, and on power-law graphs the output spreads the way the
/// frontier does). The frontier is in word order only up to the discovery
/// order inside each segment, so the bounds are kept non-decreasing.
template <int NT>
void plan_owner_bounds(BfsScratch<NT>& ws, BfsKernel kernel,
                       index_t frontier_words,
                       const std::vector<index_t>& bounds) {
  const auto shares = static_cast<std::size_t>(ws.shares);
  std::vector<index_t>& ob = ws.owner_bounds;
  ob[0] = 0;
  ob[shares] = ws.y.num_words();
  for (std::size_t i = 1; i < shares; ++i) {
    index_t b = 0;
    if (kernel == BfsKernel::kPushCsc) {
      const auto pos = static_cast<index_t>(
          static_cast<offset_t>(frontier_words) * static_cast<offset_t>(i) /
          static_cast<offset_t>(shares));
      b = frontier_word_at(ws, pos);
    } else {
      b = bounds[ws.share_chunks[i]];
    }
    ob[i] = std::max(b, ob[i - 1]);
  }
}

/// Frontier density at or above which Push-CSR replaces Push-CSC
/// (paper: 0.01).
constexpr double kPushCsrSparsity = 0.01;
/// Additional Push-CSR guard: the frontier must also occupy at least
/// this fraction of the tile words. Push-CSR sweeps every stored tile,
/// which a GPU hides behind parallelism but a CPU pays serially; when
/// the frontier is dense-but-clustered (band matrices), the
/// vector-driven Push-CSC remains work-proportional and faster.
constexpr double kPushCsrFrontierWordsFrac = 0.5;
/// Unvisited fraction at or below which Pull-CSC takes over ("the number
/// of unvisited vertices is small").
constexpr double kPullUnvisitedFrac = 0.1;
/// Additional pull guard: Pull-CSC is only chosen while the unvisited
/// set is at most this many times the frontier (pull scans unvisited
/// vertices; push scans frontier edges — on long-diameter graphs with
/// tiny frontiers, pulling for hundreds of tail iterations would be
/// pathological). This is the direction-switch advantage test of Beamer
/// et al., which the paper's prose rule ("number of unvisited vertices
/// is small") leaves implicit.
constexpr double kPullFrontierFactor = 2.0;

template <int NT>
BfsKernel select_kernel(const TileBfsConfig& cfg, index_t n,
                        index_t frontier_size, index_t frontier_words,
                        index_t total_words, index_t unvisited) {
  const bool k1 = cfg.kernel_mask & 1u;
  const bool k2 = cfg.kernel_mask & 2u;
  const bool k3 = cfg.kernel_mask & 4u;
  const double density = static_cast<double>(frontier_size) / n;
  const double unvisited_frac = static_cast<double>(unvisited) / n;
  if (k3 && unvisited_frac <= kPullUnvisitedFrac &&
      static_cast<double>(unvisited) <=
          kPullFrontierFactor * static_cast<double>(frontier_size)) {
    return BfsKernel::kPullCsc;
  }
  if (k2 && density >= kPushCsrSparsity &&
      static_cast<double>(frontier_words) >=
          kPushCsrFrontierWordsFrac * static_cast<double>(total_words)) {
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
  if (source < 0 || source >= g.n) {
    throw std::out_of_range("TileBfs::run: source " + std::to_string(source) +
                            " outside [0, " + std::to_string(g.n) + ")");
  }
  Timer total;
  BfsResult result;
  result.levels.assign(g.n, -1);
  result.levels[source] = 0;

  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  ws.ensure(g.n, static_cast<int>(p.size()));
  const std::vector<index_t>& bounds = csr_bounds(g, ws.fallback_chunks);
  plan_share_chunks(g, ws, bounds, p);
  const int ns = p.num_shards();
  ws.m.clear();  // the one dense per-run reset; everything else is sparse
  ws.x.set(source);
  ws.m.set(source);
  ws.cur[0].words.push_back(source / NT);
  ws.cur[0].weigh(column_weight(g, source / NT));
  ws.frontier_weight = lay_out(ws.cur).weight;
  index_t visited = 1;
  index_t frontier_size = 1;
  index_t frontier_words = 1;

  p.lead_team([&](ThreadPool::Team& team) {
    for (int level = 1;; ++level) {
      const index_t unvisited = g.n - visited;
      if (frontier_size == 0 || unvisited == 0) break;
      const BfsKernel kernel = select_kernel<NT>(
          cfg, g.n, frontier_size, frontier_words, ws.x.num_words(), unvisited);

      Timer iter;
      obs::TraceSpan span("bfs/iteration", "bfs", bfs_kernel_name(kernel));
      obs::counter_add(obs::Counter::kBfsFrontierWords,
                       static_cast<std::uint64_t>(frontier_words));
      switch (kernel) {
        case BfsKernel::kPushCsc:
          obs::counter_add(obs::Counter::kBfsIterPushCsc, 1);
          break;
        case BfsKernel::kPushCsr:
          obs::counter_add(obs::Counter::kBfsIterPushCsr, 1);
          break;
        case BfsKernel::kPullCsc:
          obs::counter_add(obs::Counter::kBfsIterPullCsc, 1);
          break;
      }
      plan_owner_bounds(ws, kernel, frontier_words, bounds);
      for (std::size_t i = 0; i < ws.home_bounds.size(); ++i) {
        ws.home_bounds[i] = ceil_div<offset_t>(
            ws.frontier_weight * static_cast<offset_t>(i), team.size());
      }
      if (kernel == BfsKernel::kPushCsc) {
        // Fixed home slices: a long-diameter level is a few microseconds
        // of work, and a slot that keeps its slice keeps that slice's
        // frontier, visited and output words in its own cache.
        team.run([&](int i) {
          const offset_t lo = ws.home_bounds[static_cast<std::size_t>(i)];
          const offset_t hi = ws.home_bounds[static_cast<std::size_t>(i) + 1];
          push_csc_words(g, ws, i, lo, hi);
          side_words(g, ws, i, lo, hi);
        });
      } else {
        // Dense levels: home chunks first, then stealing, since how much
        // of a chunk's work the frontier and visited mask leave varies.
        team.run_ranges(ws.share_chunks, 1, [&](int i, index_t b, index_t e) {
          if (kernel == BfsKernel::kPushCsr) {
            push_csr_chunks(g, ws, bounds, ns, i, b, e);
          } else {
            pull_csc_chunks(g, ws, bounds, ns, i, b, e);
          }
        });
        if (!g.side_dst.empty()) {
          team.run_ranges(ws.home_bounds, offset_t{kChunkTargetWork},
                          [&](int i, offset_t lo, offset_t hi) {
                            side_words(g, ws, i, lo, hi);
                          });
        }
      }
      team.run([&](int o) { merge_tally_share(g, ws, level, result.levels, o); });

      // The leader only sums the owners' counts.
      const FrontierTotals next = lay_out(ws.next);
      obs::counter_add(obs::Counter::kBfsProducedWords,
                       static_cast<std::uint64_t>(next.words));

      result.iterations.push_back({level, kernel, frontier_size, unvisited,
                                   static_cast<double>(frontier_size) / g.n,
                                   static_cast<double>(unvisited) / g.n,
                                   iter.elapsed_ms(), frontier_words});
      if (next.found == 0) break;
      visited += next.found;
      frontier_size = next.found;
      frontier_words = next.words;
      ws.frontier_weight = next.weight;
      // Ping-pong: y becomes the frontier. The owners already zeroed the
      // old frontier's words, so the new y is all-zero.
      std::swap(ws.x.words, ws.y.words);
      std::swap(ws.cur, ws.next);
    }
  });

  // Restore the workspace invariants for the next run: x goes back to
  // all-zero through its segments (y and the share outputs already are).
  for (auto& seg : ws.cur) {
    for (index_t s : seg.words) ws.x.words[s] = 0;
    seg.clear();
  }
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
                     : (a.rows > kOrderThreshold ? 64 : 32);
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
