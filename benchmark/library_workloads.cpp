// The library workloads. Each op is what a library user waits on:
//
//   bfs-road    one full TileBfs::run on road-large, converted in memory.
//               ~840 levels of tiny frontiers: pool dispatch dominates.
//   bfs-rmat    one full TileBfs::run on rmat-large, mapped zero-copy from a
//               graph tile file written beforehand. ~5 dense levels: the
//               bit kernels and memory traffic dominate (the control for
//               dispatch changes, and the mmap path's workload).
//   spmspv-web  one frontier-like cycle of 21 SpmspvOperator::multiply
//               calls on web-large: 1 vector at sparsity 1e-2 (CSR form),
//               4 at 1e-3 and 16 at 1e-4 (CSC form).
//
// Every op's output is checked against a serial reference outside the op
// timer; mismatches are counted, never fatal.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "bfs/tile_bfs.hpp"
#include "core/spmspv.hpp"
#include "core/spmspv_reference.hpp"
#include "core/work_model.hpp"
#include "formats/tile_file.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "tile/bit_tile_graph.hpp"
#include "util/prng.hpp"

namespace tilespmspv::benchmark {
namespace {

// Shares of the layer pass budget; the traced block is a fixed op count.
constexpr double kLayerUntracedShare = 0.45;
constexpr double kLayerOneThreadShare = 0.25;
constexpr int kProbeReps = 3;  // repetitions of each probed set-up call
// Floor of the end-to-end block: 25 ops beyond the p90, and 25 ops in each
// of its kWindows windows.
constexpr std::size_t kEndToEndMinOps = 250;

/// Per-workload op counts of the shared pass structure.
struct Schedule {
  std::size_t count_ops;  // exact counters over ops [0, count_ops)
  std::size_t trace_ops;  // ops in the traced block
  std::size_t min_ops;    // floor of the layer pass and smoke blocks
  int setup_rounds;       // set-ups per CPU (median reported)
};

/// Wraps an engine so each op records one "bench/op" span.
template <typename Engine>
struct Traced {
  Engine& engine;
  double run(std::size_t i) {
    obs::TraceSpan span("bench/op", "bench");
    return engine.run(i);
  }
  bool check(std::size_t i) const { return engine.check(i); }
};

/// Times `fn` `reps` times under a span named `span`; returns the median ms.
template <typename Fn>
double probe_ms(const char* span, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    obs::TraceSpan s(span, "bench");
    Timer t;
    fn();
    ms.push_back(t.elapsed_ms());
  }
  return median(ms);
}

double file_mb(const std::string& path) {
  return static_cast<double>(read_tile_file_header(path).file_bytes) / kMiB;
}

/// The pass structure every library workload shares.
///
/// End-to-end pass: `build(pool)` (the set-up: input available -> first op
/// runnable) repeated on each CPU and its median reported, then one block
/// of ops at `opt.threads` for the whole budget.
///
/// Layer pass: the dispatch probe, an untraced block whose first
/// `count_ops` ops give exact per-op counters, `layer(engine, counted)`
/// for the workload's own layer metrics, a block on structures built for
/// a 1-thread pool, then a trace session holding `probe(pool, reps)` (the
/// set-up layer calls, each timed alone) and `trace_ops` traced ops.
template <typename Build, typename Probe, typename Layer>
void library_workload(const Options& opt, Report& rep, const Schedule& s,
                      Build&& build, Probe&& probe, Layer&& layer) {
  const double budget = opt.smoke ? opt.seconds / 2.0 : opt.seconds;
  ThreadPool pool(opt.threads);

  if (opt.end_to_end) {
    std::vector<double> setup_s;
    decltype(build(pool)) engine;
    auto set_up = [&] {
      engine.reset();
      Timer t;
      engine = build(pool);
      setup_s.push_back(t.elapsed_s());
    };
    if (opt.smoke) {
      set_up();
    } else {
      on_each_cpu(s.setup_rounds, set_up);
    }
    rep.put("setup_s", median(setup_s), "s", setup_s.size());
    const Block b = run_block(*engine, budget,
                              opt.smoke ? s.min_ops : kEndToEndMinOps, rep);
    rep.put("ops_per_s", b.ops_per_s(), "1/s", b.count());
    rep.put("op_ms_p50", b.p(50.0), "ms", b.count());
    rep.put("op_ms_p90", b.p(90.0), "ms", b.count());
    rep.add_samples(b.ms());
  }
  if (!opt.per_layer) return;

  auto engine = build(pool);
  const int calls = opt.smoke ? 2000 : 20000;
  const double dispatch_us = dispatch_us_p50(pool, calls);
  rep.put("parallel.dispatch_us", dispatch_us, "us",
          static_cast<std::size_t>(calls));

  obs::CounterSnapshot first, after_count;
  const Block b = run_block(
      *engine, budget * kLayerUntracedShare,
      std::max({s.min_ops, s.count_ops, s.trace_ops}), rep,
      [&](std::size_t i) {
        if (i == 0) first = obs::counters_snapshot();
        if (i == s.count_ops) after_count = obs::counters_snapshot();
      });
  const obs::CounterSnapshot counted = after_count - first;
  const double loops = per_op(counted, obs::Counter::kPoolLoops, s.count_ops);
  rep.put("parallel.dispatches_per_op", loops, "count", s.count_ops);
  rep.put("parallel.chunks_per_dispatch",
          ratio(per_op(counted, obs::Counter::kPoolChunks, s.count_ops), loops),
          "count", s.count_ops);
  rep.put("parallel.dispatch_share",
          dispatch_us * 1e-3 * loops / b.mean_ms(), "ratio", b.count());
  layer(*engine, counted);

  {
    ThreadPool pool1(1);
    auto engine1 = build(pool1);
    const Block b1 =
        run_block(*engine1, budget * kLayerOneThreadShare, s.min_ops, rep);
    rep.put("parallel.ops_per_s_1t", b1.ops_per_s(), "1/s", b1.count());
    rep.put("parallel.speedup_vs_1t", b.ops_per_s() / b1.ops_per_s(), "x",
            b1.count());
  }

  obs::trace_enable(kTraceEventsPerThread);
  probe(pool, opt.smoke ? 1 : kProbeReps);
  Traced<std::remove_reference_t<decltype(*engine)>> traced{*engine};
  const Block bt = run_block(traced, 0.0, s.trace_ops, rep);
  obs::trace_disable();
  if (!obs::trace_write_chrome_json_file(opt.trace_path)) {
    throw std::runtime_error("cannot write " + opt.trace_path);
  }
  // Same ops untraced: the first trace_ops ops of the untraced block.
  const std::vector<double> same(b.ms().begin(),
                                 b.ms().begin() + static_cast<std::ptrdiff_t>(
                                                      s.trace_ops));
  rep.put("trace.overhead_pct", (bt.mean_ms() / mean(same) - 1.0) * 100.0,
          "%", bt.count());
}

// ---------------------------------------------------------------------
// TileBFS
// ---------------------------------------------------------------------

constexpr int kBfsSources = 256;
constexpr int kBfsTileSize = 64;  // both BFS matrices are above order 10,000

struct BfsInput {
  std::string matrix;
  Csr<value_t> a;  // adjacency: A[i][j] != 0 <=> edge j -> i
  std::vector<index_t> sources;
  index_t hub = 0;  // a vertex of highest out-degree, independent of the seed
  std::vector<std::uint64_t> ref_hash;  // serial_bfs levels, hashed
  std::vector<offset_t> ref_edges;      // edges traversed from each source
};

/// Seeded sources: distinct vertices with out-degree >= 1. A traversal
/// from an isolated R-MAT vertex finishes in microseconds and would leave
/// the tail with nothing in it.
std::vector<index_t> draw_sources(const Csr<value_t>& out_edges,
                                  std::uint64_t seed, int count) {
  std::vector<index_t> candidates;
  for (index_t v = 0; v < out_edges.rows; ++v) {
    if (out_edges.row_nnz(v) > 0) candidates.push_back(v);
  }
  if (candidates.size() < static_cast<std::size_t>(count)) {
    throw std::runtime_error("too few vertices with out-degree >= 1");
  }
  Prng rng(seed);
  for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next_below(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
  }
  candidates.resize(static_cast<std::size_t>(count));
  return candidates;
}

/// The graph, the seeded sources and their serial references (computed
/// one source per task on `pool`).
BfsInput make_bfs_input(const std::string& matrix, std::uint64_t seed,
                        ThreadPool& pool) {
  BfsInput in;
  in.matrix = matrix;
  in.a = Csr<value_t>::from_coo(suite_matrix(matrix));
  const Csr<value_t> out_edges = in.a.transpose();
  in.sources = draw_sources(out_edges, seed, kBfsSources);
  for (index_t v = 1; v < out_edges.rows; ++v) {
    if (out_edges.row_nnz(v) > out_edges.row_nnz(in.hub)) in.hub = v;
  }
  in.ref_hash.resize(in.sources.size());
  in.ref_edges.resize(in.sources.size());
  parallel_for(
      kBfsSources,
      [&](index_t k) {
        const std::vector<index_t> levels =
            serial_bfs(out_edges, in.sources[static_cast<std::size_t>(k)]);
        offset_t edges = 0;
        for (index_t v = 0; v < out_edges.rows; ++v) {
          if (levels[static_cast<std::size_t>(v)] >= 0) {
            edges += out_edges.row_nnz(v);
          }
        }
        in.ref_hash[static_cast<std::size_t>(k)] = hash_levels(levels);
        in.ref_edges[static_cast<std::size_t>(k)] = edges;
      },
      &pool, /*chunk=*/1);
  return in;
}

/// One op = one traversal from source i mod kBfsSources. Keeps the level log
/// of every op it ran for the bfs.* layer metrics.
class BfsEngine {
 public:
  BfsEngine(const BfsInput& in, std::unique_ptr<TileBfs> bfs)
      : in_(in), bfs_(std::move(bfs)) {
    if (bfs_->tile_size() != kBfsTileSize) {
      throw std::runtime_error("unexpected BFS tile size");
    }
  }

  double run(std::size_t i) {
    const std::size_t k = i % in_.sources.size();
    Timer t;
    last_ = bfs_->run(in_.sources[k], ws_);
    const double ms = t.elapsed_ms();
    levels_.push_back(static_cast<double>(last_.iterations.size()));
    for (const BfsIterationLog& it : last_.iterations) {
      level_ms_.push_back(it.ms);
      kernel_ms_[static_cast<int>(it.kernel)] += it.ms;
    }
    edges_ += static_cast<double>(in_.ref_edges[k]);
    busy_ms_ += ms;
    return ms;
  }

  bool check(std::size_t i) const {
    return hash_levels(last_.levels) ==
           in_.ref_hash[i % in_.sources.size()];
  }

  /// One traversal from the hub, not counted as an op. A mapped graph's
  /// pages fault in on first touch, so the mapped workload's set-up runs
  /// until this first traversal ends.
  void first_traversal() { (void)bfs_->run(in_.hub, ws_); }

  void put_layer(Report& rep, std::size_t count_ops) const {
    const std::vector<double> counted(
        levels_.begin(),
        levels_.begin() + static_cast<std::ptrdiff_t>(count_ops));
    rep.put("bfs.levels_per_op", mean(counted), "count", count_ops);
    double total = 0.0;
    for (const double ms : kernel_ms_) total += ms;
    const char* names[] = {"bfs.push_csc.ms_share", "bfs.push_csr.ms_share",
                           "bfs.pull_csc.ms_share"};
    for (int k = 0; k < 3; ++k) {
      rep.put(names[k], ratio(kernel_ms_[k], total), "ratio",
              level_ms_.size());
    }
    rep.put("bfs.level_ms_p50", median(level_ms_), "ms", level_ms_.size());
    rep.put("bfs.gteps", edges_ / (busy_ms_ * 1e6), "GTEPS", levels_.size());
  }

 private:
  const BfsInput& in_;
  std::unique_ptr<TileBfs> bfs_;
  BfsWorkspace ws_;
  BfsResult last_;
  std::vector<double> levels_;    // BFS levels of each op run
  std::vector<double> level_ms_;  // every level of every op
  double kernel_ms_[3] = {0.0, 0.0, 0.0};  // indexed by BfsKernel
  double edges_ = 0.0;
  double busy_ms_ = 0.0;
};

/// Graph tile file conversion, write and map of `in.a`, each timed alone.
void probe_bfs_layers(const BfsInput& in, ThreadPool& pool, int reps,
                      Report& rep) {
  std::unique_ptr<BitTileGraph<kBfsTileSize>> g;
  rep.put("tile.convert_ms", probe_ms("bench/convert", reps, [&] {
            g = std::make_unique<BitTileGraph<kBfsTileSize>>(
                BitTileGraph<kBfsTileSize>::from_csr(
                    in.a, TileBfsConfig{}.extract_threshold, true, &pool));
          }),
          "ms", static_cast<std::size_t>(reps));
  rep.put("tile.stored_tiles", g->num_tiles(), "count");
  rep.put("tile.side_nnz_frac",
          ratio(static_cast<double>(g->side_edge_count()),
                static_cast<double>(g->edges)),
          "ratio");
  rep.put("tile.mb", static_cast<double>(g->payload_bytes()) / kMiB, "MB");
  const ScratchFile file{in.matrix + ".probe.ttlf"};
  const std::string& path = file.path;
  rep.put("formats.write_ms", probe_ms("bench/write", reps, [&] {
            write_bit_tile_graph_file<kBfsTileSize>(path, *g);
          }),
          "ms", static_cast<std::size_t>(reps));
  const int map_reps = reps * 10 + 1;
  rep.put("formats.map_ms", probe_ms("bench/map", map_reps, [&] {
            (void)map_bit_tile_graph_file<kBfsTileSize>(path);
          }),
          "ms", static_cast<std::size_t>(map_reps));
  rep.put("formats.file_mb", file_mb(path), "MB");
}

void run_bfs(const Options& opt, Report& rep, const std::string& matrix,
             bool mapped) {
  std::fprintf(stderr, "[%s] preparing %s, %d sources, references\n",
               opt.workload.c_str(), matrix.c_str(), kBfsSources);
  const BfsInput in = [&] {
    ThreadPool prep(opt.threads);
    return make_bfs_input(matrix, opt.seed, prep);
  }();
  // The mapped workload's offline step: convert and write the graph tile
  // file once. Its cost is a layer metric (tile.convert_ms,
  // formats.write_ms), not set-up.
  const ScratchFile file{matrix + ".ttlf"};
  const std::string& path = file.path;
  if (mapped) {
    write_bit_tile_graph_file<kBfsTileSize>(
        path, BitTileGraph<kBfsTileSize>::from_csr(
                  in.a, TileBfsConfig{}.extract_threshold));
  }
  const Schedule s{/*count_ops=*/16, /*trace_ops=*/mapped ? 32u : 8u,
                   /*min_ops=*/8, /*setup_rounds=*/mapped ? 13 : 3};
  library_workload(
      opt, rep, s,
      [&](ThreadPool& pool) {
        if (!mapped) {
          return std::make_unique<BfsEngine>(
              in, std::make_unique<TileBfs>(in.a, TileBfsConfig{}, &pool));
        }
        auto engine = std::make_unique<BfsEngine>(
            in, std::make_unique<TileBfs>(path, TileBfsConfig{}, &pool));
        engine->first_traversal();
        return engine;
      },
      [&](ThreadPool& pool, int reps) {
        probe_bfs_layers(in, pool, reps, rep);
      },
      [&](const BfsEngine& engine, const obs::CounterSnapshot& counted) {
        engine.put_layer(rep, s.count_ops);
        rep.put("bfs.tiles_visited_per_op",
                per_op(counted, obs::Counter::kBfsTilesVisited, s.count_ops),
                "count", s.count_ops);
        rep.put("bfs.side_edges_per_op",
                per_op(counted, obs::Counter::kBfsSideEdges, s.count_ops),
                "count", s.count_ops);
      });
}

// ---------------------------------------------------------------------
// SpMSpV
// ---------------------------------------------------------------------

constexpr int kCycles = 8;          // distinct vector cycles per seed
constexpr int kCycleLen = 21;       // multiplies per op
constexpr double kSparsity[] = {1e-2, 1e-3, 1e-4};
constexpr int kClassCount[] = {1, 4, 16};  // multiplies per class, in order
const char* const kClassMetric[] = {"core.sp0.01.ms_p50", "core.sp0.001.ms_p50",
                                    "core.sp0.0001.ms_p50"};

int class_of(int j) {
  return j < kClassCount[0] ? 0 : (j < kClassCount[0] + kClassCount[1] ? 1 : 2);
}

struct SpmspvInput {
  Csr<value_t> a;
  std::vector<SparseVec<value_t>> xs;    // kCycles * kCycleLen, cycle-major
  std::vector<SparseVec<value_t>> refs;  // row-wise reference of each x
};

/// The matrix, the seeded vector cycles and their row-wise references
/// (one vector per task on `pool`).
SpmspvInput make_spmspv_input(std::uint64_t seed, ThreadPool& pool) {
  SpmspvInput in;
  in.a = Csr<value_t>::from_coo(suite_matrix("web-large"));
  Prng rng(seed);
  for (int c = 0; c < kCycles; ++c) {
    for (int j = 0; j < kCycleLen; ++j) {
      in.xs.push_back(gen_sparse_vector(in.a.cols, kSparsity[class_of(j)],
                                        rng.next_u64()));
    }
  }
  in.refs.resize(in.xs.size());
  parallel_for(
      static_cast<index_t>(in.xs.size()),
      [&](index_t i) {
        const auto k = static_cast<std::size_t>(i);
        in.refs[k] = spmspv_rowwise_reference(in.a, in.xs[k]);
      },
      &pool, /*chunk=*/1);
  return in;
}

/// One op = one cycle of 21 multiplies. Keeps per-multiply times by
/// sparsity class for the core.* layer metrics.
class SpmspvEngine {
 public:
  SpmspvEngine(const SpmspvInput& in,
               std::unique_ptr<SpmspvOperator<value_t>> op)
      : in_(in), op_(std::move(op)), ys_(kCycleLen) {}

  double run(std::size_t i) {
    const std::size_t base = (i % kCycles) * kCycleLen;
    double total = 0.0;
    for (int j = 0; j < kCycleLen; ++j) {
      Timer t;
      ys_[static_cast<std::size_t>(j)] =
          op_->multiply(in_.xs[base + static_cast<std::size_t>(j)]);
      const double ms = t.elapsed_ms();
      class_ms_[class_of(j)].push_back(ms);
      total += ms;
    }
    return total;
  }

  bool check(std::size_t i) const {
    const std::size_t base = (i % kCycles) * kCycleLen;
    for (std::size_t j = 0; j < kCycleLen; ++j) {
      if (!matches_reference(ys_[j], in_.refs[base + j])) return false;
    }
    return true;
  }

  void put_layer(Report& rep) const {
    for (int c = 0; c < 3; ++c) {
      rep.put(kClassMetric[c], median(class_ms_[c]), "ms", class_ms_[c].size());
    }
    // Work model of each multiply in the kernel form kAuto selects, over
    // every vector cycle (computed from the tiled metadata, not measured).
    double flops = 0.0, bytes = 0.0;
    for (const SparseVec<value_t>& x : in_.xs) {
      const TileVector<value_t> xt =
          TileVector<value_t>::from_sparse(x, op_->matrix().nt);
      const SpmspvWork w =
          op_->select(xt) == SpmspvKernel::kCsc
              ? work_tile_spmspv_csc(op_->matrix_transposed(), xt)
              : work_tile_spmspv_csr(op_->matrix(), xt);
      flops += spmspv_flops(w);
      bytes += spmspv_traffic_bytes(w);
    }
    rep.put("core.flops_computed", flops / kCycles, "flop", kCycles);
    rep.put("core.bytes_computed", bytes / kCycles, "B", kCycles);
    rep.put("core.flops_per_byte", flops / bytes, "flop/B", kCycles);
  }


 private:
  const SpmspvInput& in_;
  std::unique_ptr<SpmspvOperator<value_t>> op_;
  std::vector<SparseVec<value_t>> ys_;
  std::vector<double> class_ms_[3];
};

}  // namespace

TiledPair convert_pair(const Csr<value_t>& a) {
  const SpmspvConfig cfg;
  return {TileMatrix<value_t>::from_csr(a, cfg.nt, cfg.extract_threshold),
          TileMatrix<value_t>::from_csr(a.transpose(), cfg.nt,
                                        cfg.extract_threshold)};
}

void probe_tile_matrix_layers(const Csr<value_t>& a, const std::string& name,
                              int reps, Report& rep) {
  TiledPair t;
  rep.put("tile.convert_ms",
          probe_ms("bench/convert", reps, [&] { t = convert_pair(a); }), "ms",
          static_cast<std::size_t>(reps));
  rep.put("tile.stored_tiles", t.a.num_tiles() + t.at.num_tiles(), "count");
  rep.put("tile.side_nnz_frac",
          ratio(static_cast<double>(t.a.extracted.nnz()),
                static_cast<double>(t.a.total_nnz())),
          "ratio");
  rep.put("tile.mb",
          static_cast<double>(t.a.payload_bytes() + t.at.payload_bytes()) /
              kMiB,
          "MB");
  const ScratchFile file{name + ".probe.ttlf"};
  rep.put("formats.write_ms", probe_ms("bench/write", reps, [&] {
            write_tile_matrix_file_v2(file.path, t.a, &t.at);
          }),
          "ms", static_cast<std::size_t>(reps));
  const int map_reps = reps * 10 + 1;
  rep.put("formats.map_ms", probe_ms("bench/map", map_reps, [&] {
            (void)map_tile_matrix_file(file.path);
          }),
          "ms", static_cast<std::size_t>(map_reps));
  rep.put("formats.file_mb", file_mb(file.path), "MB");
}

void run_bfs_road(const Options& opt, Report& rep) {
  run_bfs(opt, rep, "road-large", /*mapped=*/false);
}

void run_bfs_rmat(const Options& opt, Report& rep) {
  run_bfs(opt, rep, "rmat-large", /*mapped=*/true);
}

void run_spmspv_web(const Options& opt, Report& rep) {
  std::fprintf(stderr, "[%s] preparing web-large, %d vector cycles, references\n",
               opt.workload.c_str(), kCycles);
  const SpmspvInput in = [&] {
    ThreadPool prep(opt.threads);
    return make_spmspv_input(opt.seed, prep);
  }();
  const Schedule s{/*count_ops=*/kCycles, /*trace_ops=*/16, /*min_ops=*/8,
                   /*setup_rounds=*/1};
  library_workload(
      opt, rep, s,
      [&](ThreadPool& pool) {
        return std::make_unique<SpmspvEngine>(
            in, std::make_unique<SpmspvOperator<value_t>>(in.a, SpmspvConfig{},
                                                          &pool));
      },
      [&](ThreadPool&, int reps) {
        probe_tile_matrix_layers(in.a, "web-large", reps, rep);
      },
      [&](const SpmspvEngine& engine, const obs::CounterSnapshot& counted) {
        engine.put_layer(rep);
        const std::pair<const char*, obs::Counter> counters[] = {
            {"core.tiles_scanned", obs::Counter::kTilesScanned},
            {"core.tiles_computed", obs::Counter::kTilesComputed},
            {"core.payload_macs", obs::Counter::kPayloadMacs},
            {"core.side_macs", obs::Counter::kSideMacs},
            {"core.gather_slots", obs::Counter::kGatherSlots}};
        for (const auto& [name, c] : counters) {
          rep.put(name, per_op(counted, c, s.count_ops), "count", s.count_ops);
        }
      });
}

}  // namespace tilespmspv::benchmark
