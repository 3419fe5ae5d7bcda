// tilespmspv_cli — command-line front end for the library, so a user can
// exercise SpMSpV, BFS, SSSP and the tiled-format statistics on their own
// Matrix Market files (or on the built-in synthetic suite) without
// writing code.
//
//   tilespmspv_cli tiles  (--matrix F.mtx | --suite NAME) [--nt 16] [--json]
//   tilespmspv_cli spmspv (--matrix F.mtx | --suite NAME)
//                         [--sparsity 0.01] [--seed 1] [--iters 5]
//                         [--compare] [--json]
//   tilespmspv_cli bfs    (--matrix F.mtx | --suite NAME)
//                         [--source -1 (max degree)] [--compare] [--json]
//   tilespmspv_cli sssp   (--matrix F.mtx | --suite NAME) [--source 0]
//   tilespmspv_cli list   (names of built-in suite matrices)
//   tilespmspv_cli convert (--matrix F.mtx | --suite NAME) --out PATH
//                         [--nt N] [--extract 2] [--graph] [--transpose]
//                         one-time offline conversion to the v2 mmap tile
//                         format (formats/tile_file.hpp); --graph writes a
//                         BitTileGraph for BFS, --transpose bakes Aᵀ so
//                         the CSC kernel stays available on the mapped
//                         matrix
//   tilespmspv_cli mapcheck (--matrix F.mtx | --suite NAME) --file PATH
//                         [--shards N] [--sparsity 0.01] [--seed 1]
//                         [--source -1] [--json]
//                         differential check: in-memory conversion vs the
//                         mmapped file must agree (SpMSpV output or BFS
//                         levels), reporting the load-vs-convert speedup
//                         and per-shard balance counters
//
// Observability flags (any subcommand):
//   --metrics PATH   write run metrics + kernel counters (JSON, or CSV when
//                    PATH ends in .csv)
//   --trace PATH     record trace spans, write Chrome trace-event JSON
//                    (load in chrome://tracing or ui.perfetto.dev)
//   --profile        print the merged kernel-counter table and the
//                    per-phase span aggregation (count/total/mean/p95 per
//                    span name) after the run
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "apps/connected_components.hpp"
#include "apps/ppr.hpp"
#include "apps/sssp.hpp"
#include "tile/format_advisor.hpp"
#include "tile/tile_stats.hpp"
#include "baselines/csr_spmv.hpp"
#include "baselines/serial_bfs.hpp"
#include "bfs/tile_bfs.hpp"
#include "core/spmspv.hpp"
#include "formats/mm_io.hpp"
#include "formats/tile_file.hpp"
#include "tile/bit_tile_graph.hpp"
#include "obs/shard_stats.hpp"
#include "parallel/thread_pool.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "obs/bench_report.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/json_value.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace tilespmspv;

namespace {

Csr<value_t> load_matrix(const Args& args) {
  const std::string file = args.get("--matrix");
  if (!file.empty()) {
    return Csr<value_t>::from_coo(read_matrix_market_file(file));
  }
  const std::string name = args.get("--suite");
  if (!name.empty()) {
    return Csr<value_t>::from_coo(suite_matrix(name));
  }
  throw std::invalid_argument("pass --matrix FILE.mtx or --suite NAME");
}

void describe_matrix(const Args& args, obs::MetricsRegistry& metrics,
                     const Csr<value_t>& a) {
  const std::string file = args.get("--matrix");
  metrics.put_str("matrix", file.empty() ? args.get("--suite") : file);
  metrics.put_int("rows", a.rows);
  metrics.put_int("cols", a.cols);
  metrics.put_int("nnz", a.nnz());
}

int cmd_list() {
  Table t({"name", "description"});
  for (const auto& name : suite_all_names()) {
    t.add_row({name, suite_description(name)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_tiles(const Args& args, obs::MetricsRegistry& metrics) {
  const Csr<value_t> a = load_matrix(args);
  const auto nt = static_cast<index_t>(args.get_int("--nt", 16));
  if (nt < 1 || nt > 256) {
    throw std::invalid_argument("--nt must be in [1, 256]");
  }
  describe_matrix(args, metrics, a);
  metrics.put_int("nt", nt);

  obs::JsonWriter w(std::cout);
  if (args.has("--json")) {
    w.begin_object();
    w.key("rows").value(a.rows);
    w.key("cols").value(a.cols);
    w.key("nnz").value(static_cast<std::int64_t>(a.nnz()));
    w.key("nt").value(nt);
    w.key("thresholds").begin_array();
  } else {
    std::printf("matrix: %d x %d, %lld nonzeros\n", a.rows, a.cols,
                static_cast<long long>(a.nnz()));
  }
  Table t({"extract threshold", "tiles kept", "nnz in tiles",
           "nnz extracted", "tile occupancy"});
  for (index_t threshold : {0, 1, 2, 4, 8}) {
    const TileMatrix<value_t> m =
        TileMatrix<value_t>::from_csr(a, nt, threshold);
    if (args.has("--json")) {
      w.begin_object();
      w.key("extract_threshold").value(threshold);
      w.key("tiles_kept").value(static_cast<std::int64_t>(m.num_tiles()));
      w.key("nnz_in_tiles").value(static_cast<std::int64_t>(m.tiled_nnz()));
      w.key("nnz_extracted")
          .value(static_cast<std::int64_t>(m.extracted.nnz()));
      w.key("tile_occupancy").value(m.tile_occupancy());
      w.end_object();
    } else {
      t.add_row({std::to_string(threshold), fmt_count(m.num_tiles()),
                 fmt_count(m.tiled_nnz()), fmt_count(m.extracted.nnz()),
                 fmt(100.0 * m.tile_occupancy(), 4) + "%"});
    }
  }
  if (args.has("--json")) {
    w.end_array();
    w.end_object();
    std::cout << "\n";
  } else {
    t.print(std::cout);
  }
  return 0;
}

int cmd_stats(const Args& args) {
  const Csr<value_t> a = load_matrix(args);
  std::printf("matrix: %d x %d, %lld nonzeros\n", a.rows, a.cols,
              static_cast<long long>(a.nnz()));
  Table t({"nt", "non-empty tiles", "occupancy", "avg nnz/tile",
           "max nnz/tile", "tiles nnz<=2", "max tiles/row-tile"});
  for (index_t nt : {16, 32, 64}) {
    const TileStats s = tile_stats(a, nt);
    t.add_row({std::to_string(nt), fmt_count(s.nonempty_tiles),
               fmt(100.0 * s.occupancy, 4) + "%", fmt(s.avg_nnz_per_tile, 1),
               fmt_count(s.max_nnz_per_tile), fmt_count(s.tiles_le2),
               fmt_count(s.max_row_tiles)});
  }
  t.print(std::cout);
  // nnz-per-tile histogram at the default tile size.
  const TileStats s = tile_stats(a, 16);
  std::printf("\nnnz-per-tile histogram (nt=16):\n");
  for (std::size_t b = 0; b < s.nnz_histogram.size(); ++b) {
    if (s.nnz_histogram[b] == 0) continue;
    std::printf("  [%4lld, %4lld): %s\n",
                static_cast<long long>(1LL << b),
                static_cast<long long>(2LL << b),
                fmt_count(s.nnz_histogram[b]).c_str());
  }
  return 0;
}

int cmd_advise(const Args& args) {
  const Csr<value_t> a = load_matrix(args);
  const FormatAdvice advice = advise_format(a);
  const TileStats s = tile_stats(a, 16);
  std::printf("matrix: %d x %d, %lld nonzeros; avg %.1f nnz per non-empty "
              "16x16 tile\n",
              a.rows, a.cols, static_cast<long long>(a.nnz()),
              s.avg_nnz_per_tile);
  std::printf("recommended storage : %s\n", to_string(advice.family));
  if (advice.family == StorageFamily::kTiled) {
    std::printf("  tile size         : %d\n", advice.nt);
    std::printf("  intra-tile layout : %s\n", to_string(advice.layout));
    std::printf("  extract threshold : %d\n", advice.extract_threshold);
  }
  std::printf("rationale: %s\n", advice.rationale);
  return 0;
}

int cmd_spmspv(const Args& args, obs::MetricsRegistry& metrics) {
  const Csr<value_t> a = load_matrix(args);
  const double sparsity = args.get_double("--sparsity", 0.01);
  const auto seed = static_cast<std::uint64_t>(args.get_int("--seed", 1));
  const int iters = static_cast<int>(args.get_int("--iters", 5));

  SpmspvConfig cfg;
  cfg.nt = static_cast<index_t>(args.get_int("--nt", 16));
  if (cfg.nt < 1 || cfg.nt > 256) {
    throw std::invalid_argument("--nt must be in [1, 256]");
  }
  Timer prep;
  SpmspvOperator<value_t> op(a, cfg);
  const double prep_ms = prep.elapsed_ms();

  const SparseVec<value_t> x = gen_sparse_vector(a.cols, sparsity, seed);
  const TileVector<value_t> xt = TileVector<value_t>::from_sparse(x, cfg.nt);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Timer t;
    (void)op.multiply(xt);
    samples.push_back(t.elapsed_ms());
  }
  const double ms = min_of(samples);
  SparseVec<value_t> y = op.multiply(xt);
  const char* kernel = op.select(xt) == SpmspvKernel::kCsc
                           ? "CSC (vector-driven)"
                           : "CSR (matrix-driven)";

  describe_matrix(args, metrics, a);
  metrics.put_double("sparsity", sparsity);
  metrics.put_int("x_nnz", x.nnz());
  metrics.put_str("kernel", kernel);
  metrics.put_double("preprocess_ms", prep_ms);
  metrics.put_double("multiply_ms_best", ms);
  metrics.put_double("multiply_ms_mean", mean(samples));
  metrics.put_double("multiply_ms_p95", percentile(samples, 95.0));
  metrics.put_int("y_nnz", y.nnz());

  bool compared = false, match = false;
  if (args.has("--compare")) {
    const SparseVec<value_t> ref = csr_spmv(a, x);
    compared = true;
    match = approx_equal(y, ref);
  }

  if (args.has("--json")) {
    obs::JsonWriter w(std::cout);
    w.begin_object();
    w.key("rows").value(a.rows);
    w.key("cols").value(a.cols);
    w.key("nnz").value(static_cast<std::int64_t>(a.nnz()));
    w.key("sparsity").value(sparsity);
    w.key("x_nnz").value(x.nnz());
    w.key("kernel").value(kernel);
    w.key("iters").value(iters);
    w.key("preprocess_ms").value(prep_ms);
    w.key("multiply_ms_best").value(ms);
    w.key("multiply_ms_mean").value(mean(samples));
    w.key("multiply_ms_p95").value(percentile(samples, 95.0));
    w.key("y_nnz").value(y.nnz());
    if (compared) w.key("matches_reference").value(match);
    w.end_object();
    std::cout << "\n";
  } else {
    std::printf("matrix %d x %d (%lld nnz); x: %d nonzeros (sparsity %g)\n",
                a.rows, a.cols, static_cast<long long>(a.nnz()), x.nnz(),
                sparsity);
    std::printf("kernel: %s\n", kernel);
    std::printf(
        "preprocess %.3f ms; multiply %.4f ms (best of %d, mean %.4f, "
        "p95 %.4f); |y| = %d\n",
        prep_ms, ms, iters, mean(samples), percentile(samples, 95.0),
        y.nnz());
    if (compared) {
      std::printf("matches dense-vector SpMV: %s\n", match ? "yes" : "NO");
    }
  }
  return compared && !match ? 1 : 0;
}

int cmd_bfs(const Args& args, obs::MetricsRegistry& metrics) {
  const Csr<value_t> a = load_matrix(args);
  if (a.rows != a.cols) {
    std::fprintf(stderr, "bfs requires a square matrix\n");
    return 1;
  }
  index_t source = static_cast<index_t>(args.get_int("--source", -1));
  if (source < 0) {
    index_t best_deg = -1;
    for (index_t v = 0; v < a.rows; ++v) {
      if (a.row_nnz(v) > best_deg) {
        best_deg = a.row_nnz(v);
        source = v;
      }
    }
  }
  TileBfs bfs(a);
  const BfsResult r = bfs.run(source);

  describe_matrix(args, metrics, a);
  metrics.put_int("source", source);
  metrics.put_int("visited", r.visited_count());
  metrics.put_int("levels", static_cast<std::int64_t>(r.iterations.size()));
  metrics.put_double("preprocess_ms", bfs.preprocess_ms());
  metrics.put_double("bfs_ms", r.total_ms);

  bool compared = false, match = false;
  if (args.has("--compare")) {
    compared = true;
    match = r.levels == serial_bfs(a, source);
  }

  if (args.has("--json")) {
    obs::JsonWriter w(std::cout);
    w.begin_object();
    w.key("n").value(a.rows);
    w.key("edges").value(static_cast<std::int64_t>(bfs.edges()));
    w.key("tile_size").value(bfs.tile_size());
    w.key("num_tiles").value(bfs.num_tiles());
    w.key("preprocess_ms").value(bfs.preprocess_ms());
    w.key("source").value(source);
    w.key("visited").value(r.visited_count());
    w.key("total_ms").value(r.total_ms);
    w.key("iterations").begin_array();
    for (const auto& it : r.iterations) {
      w.begin_object();
      w.key("level").value(it.level);
      w.key("kernel").value(bfs_kernel_name(it.kernel));
      w.key("frontier_size").value(it.frontier_size);
      w.key("unvisited").value(it.unvisited);
      w.key("frontier_density").value(it.frontier_density);
      w.key("unvisited_frac").value(it.unvisited_frac);
      w.key("frontier_words").value(it.frontier_words);
      w.key("ms").value(it.ms);
      w.end_object();
    }
    w.end_array();
    if (compared) w.key("matches_reference").value(match);
    w.end_object();
    std::cout << "\n";
  } else {
    std::printf(
        "n=%d, edges=%lld, tile size %d, %d tiles, preprocess %.2f ms\n",
        a.rows, static_cast<long long>(bfs.edges()), bfs.tile_size(),
        bfs.num_tiles(), bfs.preprocess_ms());
    std::printf("BFS from %d: %d vertices in %zu levels, %.3f ms\n", source,
                r.visited_count(), r.iterations.size(), r.total_ms);
    if (args.has("--verbose")) {
      for (const auto& it : r.iterations) {
        std::printf(
            "  level %3d  %-8s frontier %8d (%.4f)  unvisited %8d (%.4f)  "
            "%.4f ms\n",
            it.level, bfs_kernel_name(it.kernel), it.frontier_size,
            it.frontier_density, it.unvisited, it.unvisited_frac, it.ms);
      }
    }
    if (compared) {
      std::printf("matches serial BFS: %s\n", match ? "yes" : "NO");
    }
  }
  return compared && !match ? 1 : 0;
}

int cmd_sssp(const Args& args) {
  const Csr<value_t> a = load_matrix(args);
  const auto source = static_cast<index_t>(args.get_int("--source", 0));
  Timer t;
  const SsspResult r = sssp(a, source);
  index_t reached = 0;
  double max_dist = 0.0;
  for (double d : r.dist) {
    if (!std::isinf(d)) {
      ++reached;
      max_dist = std::max(max_dist, d);
    }
  }
  std::printf(
      "SSSP from %d: reached %d of %d vertices in %d rounds, %.2f ms; "
      "max distance %.4f\n",
      source, reached, a.rows, r.rounds, t.elapsed_ms(), max_dist);
  return 0;
}

int cmd_cc(const Args& args) {
  const Csr<value_t> a = load_matrix(args);
  if (a.rows != a.cols) {
    std::fprintf(stderr, "cc requires a square (undirected) matrix\n");
    return 1;
  }
  Timer t;
  const ComponentsResult r = connected_components(a);
  // Component size distribution (largest few).
  std::vector<index_t> sizes(r.count, 0);
  for (index_t c : r.component) {
    if (c >= 0) ++sizes[c];
  }
  std::sort(sizes.rbegin(), sizes.rend());
  std::printf("%d components in %.2f ms; largest: ", r.count,
              t.elapsed_ms());
  for (index_t i = 0; i < std::min<index_t>(5, r.count); ++i) {
    std::printf("%s%d", i ? ", " : "", sizes[i]);
  }
  std::printf("\n");
  return 0;
}

int cmd_ppr(const Args& args) {
  const Csr<value_t> a = load_matrix(args);
  const auto seed = static_cast<index_t>(args.get_int("--seed-vertex", 0));
  const auto topk = static_cast<index_t>(args.get_int("--top", 10));
  PprConfig cfg;
  cfg.alpha = args.get_double("--alpha", 0.85);
  cfg.epsilon = args.get_double("--epsilon", 1e-7);
  SparseVec<value_t> seeds(a.cols);
  seeds.push(seed, 1.0);
  Timer t;
  const PprResult r = personalized_pagerank(a, seeds, cfg);
  std::printf("PPR from %d: %d iterations, %.2f ms, %d vertices with mass, "
              "%.4g truncated\n",
              seed, r.iterations, t.elapsed_ms(), r.scores.nnz(),
              r.truncated_mass);
  // Top-k scores.
  std::vector<std::pair<value_t, index_t>> ranked;
  for (std::size_t k = 0; k < r.scores.idx.size(); ++k) {
    ranked.emplace_back(r.scores.vals[k], r.scores.idx[k]);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (index_t i = 0;
       i < std::min(topk, static_cast<index_t>(ranked.size())); ++i) {
    std::printf("  #%-3d vertex %-8d score %.6f\n", i + 1, ranked[i].second,
                ranked[i].first);
  }
  return 0;
}

/// `convert`: one-time offline conversion to the v2 mmap tile format. The
/// cost paid here (tiling, transpose, hash) is exactly what every later
/// mmap load skips.
int cmd_convert(const Args& args, obs::MetricsRegistry& metrics) {
  const Csr<value_t> a = load_matrix(args);
  const std::string out = args.get("--out");
  if (out.empty()) throw std::invalid_argument("pass --out PATH");
  const auto extract = static_cast<index_t>(args.get_int("--extract", 2));
  Timer t;
  std::uint64_t hash = 0;
  int nt = 0;
  if (args.has("--graph")) {
    if (a.rows != a.cols) {
      throw std::invalid_argument("--graph needs a square matrix");
    }
    // TileBfs's tile-size rule: order > 10,000 -> 64x64, else 32x32;
    // --nt 16|32|64 overrides.
    nt = static_cast<int>(
        args.get_int("--nt", a.rows > TileBfs::kOrderThreshold ? 64 : 32));
    switch (nt) {
      case 16:
        hash = write_bit_tile_graph_file(
            out, BitTileGraph<16>::from_csr(a, extract));
        break;
      case 32:
        hash = write_bit_tile_graph_file(
            out, BitTileGraph<32>::from_csr(a, extract));
        break;
      case 64:
        hash = write_bit_tile_graph_file(
            out, BitTileGraph<64>::from_csr(a, extract));
        break;
      default:
        throw std::invalid_argument("--graph --nt must be 16, 32 or 64");
    }
  } else {
    nt = static_cast<int>(args.get_int("--nt", 16));
    if (nt < 1 || nt > 256) {
      throw std::invalid_argument("--nt must be in [1, 256]");
    }
    const TileMatrix<value_t> m = TileMatrix<value_t>::from_csr(
        a, static_cast<index_t>(nt), extract);
    if (args.has("--transpose")) {
      const TileMatrix<value_t> mt = TileMatrix<value_t>::from_csr(
          a.transpose(), static_cast<index_t>(nt), extract);
      hash = write_tile_matrix_file_v2(out, m, &mt);
    } else {
      hash = write_tile_matrix_file_v2(out, m);
    }
  }
  const double convert_ms = t.elapsed_ms();
  const TileFileHeader h = read_tile_file_header(out);

  describe_matrix(args, metrics, a);
  metrics.put_str("out", out);
  metrics.put_int("nt", nt);
  metrics.put_int("file_bytes", static_cast<std::int64_t>(h.file_bytes));
  metrics.put_double("convert_ms", convert_ms);

  if (args.has("--json")) {
    obs::JsonWriter w(std::cout);
    w.begin_object();
    w.key("out").value(out);
    w.key("kind").value(args.has("--graph") ? "graph" : "matrix");
    w.key("nt").value(nt);
    w.key("rows").value(a.rows);
    w.key("cols").value(a.cols);
    w.key("nnz").value(static_cast<std::int64_t>(a.nnz()));
    w.key("file_bytes").value(static_cast<std::int64_t>(h.file_bytes));
    w.key("payload_hash").value(static_cast<std::int64_t>(hash));
    w.key("convert_ms").value(convert_ms);
    w.end_object();
    std::cout << "\n";
  } else {
    std::printf("%s: %s %d x %d (%lld nnz), nt %d, %lld bytes, %.2f ms\n",
                out.c_str(), args.has("--graph") ? "graph" : "matrix", a.rows,
                a.cols, static_cast<long long>(a.nnz()), nt,
                static_cast<long long>(h.file_bytes), convert_ms);
  }
  return 0;
}

/// Compares levels/outputs and reports the per-shard balance counters the
/// sharded kernels populated during the mapped run.
void mapcheck_report(obs::JsonWriter& w, const obs::ShardSnapshot& s) {
  w.key("shards").value(s.shards);
  w.key("shard_bytes").begin_array();
  for (int i = 0; i < s.shards; ++i) {
    w.value(static_cast<std::int64_t>(s.bytes[i]));
  }
  w.end_array();
  w.key("shard_tiles").begin_array();
  for (int i = 0; i < s.shards; ++i) {
    w.value(static_cast<std::int64_t>(s.tiles[i]));
  }
  w.end_array();
  w.key("bytes_imbalance").value(s.bytes_imbalance());
}

/// `mapcheck`: the out-of-core smoke primitive. Builds the operator twice —
/// in-memory conversion from the source matrix, and a zero-copy map of the
/// pre-converted file — runs the same query on both and requires equal
/// results. Reports the load-vs-convert speedup (the ≥10x claim) and the
/// per-shard balance counters.
int cmd_mapcheck(const Args& args, obs::MetricsRegistry& metrics) {
  const std::string file = args.get("--file");
  if (file.empty()) {
    throw std::invalid_argument("pass --file PATH (a converted v2 tile file)");
  }
  const auto shards = static_cast<int>(args.get_int("--shards", 0));
  // Local pool so shard pinning stays scoped to this command.
  ThreadPool pool;
  if (shards > 0) pool.configure_shards(shards);
  obs::shard_reset();

  const Csr<value_t> a = load_matrix(args);
  const TileFileHeader h = read_tile_file_header(file);
  const bool is_graph =
      h.kind == static_cast<std::uint32_t>(TileFileKind::kBitTileGraph);

  double convert_ms = 0.0, map_ms = 0.0;
  bool equal = false;
  if (is_graph) {
    TileBfsConfig bcfg;
    bcfg.forced_tile_size = static_cast<int>(h.nt);
    Timer tc;
    const TileBfs mem(a, bcfg, &pool);
    convert_ms = tc.elapsed_ms();
    const TileBfs mapped(file, {}, &pool);
    map_ms = mapped.preprocess_ms();
    index_t source = static_cast<index_t>(args.get_int("--source", -1));
    if (source < 0) {
      index_t best_deg = -1;
      for (index_t v = 0; v < a.rows; ++v) {
        if (a.row_nnz(v) > best_deg) {
          best_deg = a.row_nnz(v);
          source = v;
        }
      }
    }
    const BfsResult ref = mem.run(source);
    const BfsResult got = mapped.run(source);
    equal = ref.levels == got.levels;
  } else {
    SpmspvConfig cfg;
    cfg.nt = static_cast<index_t>(h.nt);
    // Same kernel on both sides so the comparison is bit-identical, and
    // the matrix-driven form exercises the sharded phase-1 dispatch.
    cfg.kernel = SpmspvKernel::kCsr;
    Timer tc;
    SpmspvOperator<value_t> mem(a, cfg, &pool);
    convert_ms = tc.elapsed_ms();
    Timer tl;
    MappedTileMatrix m = map_tile_matrix_file(file);
    SpmspvOperator<value_t> mapped(std::move(m.tiled), std::move(m.tiled_t),
                                   cfg, &pool);
    map_ms = tl.elapsed_ms();
    const SparseVec<value_t> x = gen_sparse_vector(
        a.cols, args.get_double("--sparsity", 0.01),
        static_cast<std::uint64_t>(args.get_int("--seed", 1)));
    const SparseVec<value_t> y_ref = mem.multiply(x);
    const SparseVec<value_t> y_map = mapped.multiply(x);
    equal = y_ref.idx == y_map.idx && y_ref.vals == y_map.vals;
  }
  const obs::ShardSnapshot snap = obs::shard_snapshot();
  const double speedup = map_ms > 0.0 ? convert_ms / map_ms : 0.0;

  describe_matrix(args, metrics, a);
  metrics.put_str("file", file);
  metrics.put_int("shards", snap.shards);
  metrics.put_double("convert_ms", convert_ms);
  metrics.put_double("map_ms", map_ms);
  metrics.put_double("load_speedup", speedup);
  metrics.put_double("shard_bytes_imbalance", snap.bytes_imbalance());
  metrics.put_int(is_graph ? "bfs_equal" : "spmspv_equal", equal ? 1 : 0);

  if (args.has("--json")) {
    obs::JsonWriter w(std::cout);
    w.begin_object();
    w.key("file").value(file);
    w.key("kind").value(is_graph ? "graph" : "matrix");
    w.key("nt").value(static_cast<std::int64_t>(h.nt));
    w.key("convert_ms").value(convert_ms);
    w.key("map_ms").value(map_ms);
    w.key("load_speedup").value(speedup);
    w.key(is_graph ? "bfs_equal" : "spmspv_equal").value(equal);
    mapcheck_report(w, snap);
    w.end_object();
    std::cout << "\n";
  } else {
    std::printf("%s: %s nt %lld; convert %.2f ms, map %.3f ms (%.1fx)\n",
                file.c_str(), is_graph ? "graph" : "matrix",
                static_cast<long long>(h.nt), convert_ms, map_ms, speedup);
    std::printf("%s: %s\n", is_graph ? "bfs levels equal" : "spmspv equal",
                equal ? "yes" : "NO");
    for (int s = 0; s < snap.shards; ++s) {
      std::printf("  shard %d: %llu bytes, %llu tiles, %.3f ms\n", s,
                  static_cast<unsigned long long>(snap.bytes[s]),
                  static_cast<unsigned long long>(snap.tiles[s]),
                  snap.ms[s]);
    }
    if (snap.shards > 1) {
      std::printf("  shard bytes imbalance (max/mean): %.3f\n",
                  snap.bytes_imbalance());
    }
  }
  return equal ? 0 : 1;
}

void print_profile(const obs::CounterSnapshot& snap) {
  std::printf("\nkernel counters (merged across threads):\n");
  Table t({"counter", "value"});
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    t.add_row({obs::counter_name(c),
               fmt_count(static_cast<long long>(snap[c]))});
  }
  t.print(std::cout);
  if (!obs::counters_enabled()) {
    std::printf("(counters compiled out: TILESPMSPV_NO_COUNTERS build)\n");
  }

  // Per-phase aggregation of the recorded trace spans: where the run's
  // wall time went, phase by phase, without opening a Chrome trace.
  const std::vector<obs::SpanStats> spans =
      obs::aggregate_spans(obs::trace_samples());
  if (!spans.empty()) {
    std::printf("\nphase spans (aggregated by name, sorted by total time):\n");
    Table st({"span", "count", "total ms", "mean ms", "p95 ms"});
    for (const obs::SpanStats& s : spans) {
      st.add_row({s.name, fmt_count(static_cast<long long>(s.count)),
                  fmt(s.total_ms, 3), fmt(s.mean_ms, 4), fmt(s.p95_ms, 4)});
    }
    st.print(std::cout);
  }
}

/// Builds the request line for one serve-protocol op from CLI flags. For
/// spmspv a random vector is generated client-side (same generator the
/// bench uses) so the daemon sees realistic sparse payloads.
std::string build_request(const std::string& op, const Args& args,
                          index_t cols, unsigned seed) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("op").value(op);
  const std::string alias = args.get("--alias");
  if (op == "load") {
    const std::string file = args.get("--matrix");
    const std::string suite = args.get("--suite");
    if (file.empty() == suite.empty()) {
      throw std::invalid_argument(
          "client load needs exactly one of --matrix/--suite");
    }
    if (file.empty()) {
      w.key("suite").value(suite);
    } else {
      w.key("path").value(file);
    }
    if (!alias.empty()) w.key("alias").value(alias);
  } else if (op == "unload" || op == "spmspv" || op == "bfs") {
    if (alias.empty()) throw std::invalid_argument("pass --alias NAME");
    w.key("matrix").value(alias);
    if (op == "spmspv") {
      const double sp = args.get_double("--sparsity", 0.01);
      const SparseVec<value_t> x = gen_sparse_vector(cols, sp, seed);
      w.key("indices").begin_array();
      for (const index_t i : x.idx) w.value(static_cast<std::int64_t>(i));
      w.end_array();
      w.key("values").begin_array();
      for (const value_t v : x.vals) w.value(static_cast<double>(v));
      w.end_array();
    } else if (op == "bfs") {
      w.key("source").value(
          static_cast<std::int64_t>(args.get_int("--source", 0)));
    }
  }
  w.end_object();
  return os.str();
}

/// Column count of the resident matrix named `alias` (via a list request);
/// needed to generate spmspv payload vectors of the right length.
index_t remote_cols(serve::Client& c, const std::string& alias) {
  std::string resp, err;
  if (!c.request("{\"op\":\"list\"}", &resp, &err)) {
    throw std::runtime_error("list failed: " + err);
  }
  obs::JsonValue v;
  if (!obs::json_parse_value(resp, &v)) {
    throw std::runtime_error("list returned malformed JSON");
  }
  const obs::JsonValue* ms = v.find("matrices");
  if (ms != nullptr && ms->is_array()) {
    for (const auto& m : ms->arr) {
      if (m.string_or("alias", "") == alias ||
          m.string_or("key", "") == alias) {
        return static_cast<index_t>(m.number_or("cols", 0.0));
      }
    }
  }
  throw std::runtime_error("matrix '" + alias + "' is not resident");
}

/// `client`: one request against a running daemon, response to stdout.
int cmd_client(const Args& args) {
  const std::string socket = args.get("--socket", "/tmp/tilespmspv.sock");
  const std::string op = args.get("--op", "ping");
  serve::Client c;
  std::string err;
  if (!c.connect(socket, &err)) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", socket.c_str(),
                 err.c_str());
    return 1;
  }
  index_t cols = 0;
  if (op == "spmspv") cols = remote_cols(c, args.get("--alias"));
  const std::string req = build_request(
      op, args, cols, static_cast<unsigned>(args.get_int("--seed", 1)));
  std::string resp;
  if (!c.request(req, &resp, &err)) {
    std::fprintf(stderr, "request failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", resp.c_str());
  return resp.rfind("{\"ok\":true", 0) == 0 ? 0 : 1;
}

/// `loadgen`: closed- or open-loop load generator against a running
/// daemon. Closed loop: each of C connections issues its share of
/// --count requests back to back. Open loop: requests start on a global
/// schedule at --rate per second regardless of completions (the
/// latency-under-load number serving papers quote).
int cmd_loadgen(const Args& args, obs::MetricsRegistry& metrics) {
  const std::string socket = args.get("--socket", "/tmp/tilespmspv.sock");
  const std::string op = args.get("--op", "spmspv");
  const std::string mode = args.get("--mode", "closed");
  const std::string alias = args.get("--alias");
  const long count = args.get_int("--count", 100);
  const long conc = std::max(1L, args.get_int("--concurrency", 4));
  const double rate = args.get_double("--rate", 100.0);
  if (op != "spmspv" && op != "bfs" && op != "mixed") {
    throw std::invalid_argument("loadgen --op must be spmspv|bfs|mixed");
  }
  if (mode != "closed" && mode != "open") {
    throw std::invalid_argument("loadgen --mode must be closed|open");
  }
  if (alias.empty()) throw std::invalid_argument("pass --alias NAME");

  index_t cols = 0;
  {
    serve::Client probe;
    std::string err;
    if (!probe.connect(socket, &err)) {
      std::fprintf(stderr, "cannot connect to %s: %s\n", socket.c_str(),
                   err.c_str());
      return 1;
    }
    cols = remote_cols(probe, alias);
  }

  std::mutex agg_mu;
  obs::LatencyHistogram hist;
  long errors = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (long wi = 0; wi < conc; ++wi) {
    workers.emplace_back([&, wi] {
      serve::Client c;
      std::string err;
      if (!c.connect(socket, &err)) {
        std::lock_guard<std::mutex> g(agg_mu);
        errors += (count / conc) + 1;
        return;
      }
      obs::LatencyHistogram local;
      long local_errors = 0;
      for (long i = wi; i < count; i += conc) {
        const std::string one =
            (op == "mixed") ? ((i % 2 == 0) ? "spmspv" : "bfs") : op;
        std::string req;
        try {
          req = build_request(one, args, cols,
                              static_cast<unsigned>(i + 1));
        } catch (const std::exception&) {
          ++local_errors;
          continue;
        }
        if (mode == "open") {
          // Global schedule: request i fires at t0 + i/rate seconds.
          const auto due =
              t0 + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
          std::this_thread::sleep_until(due);
        }
        const auto rt0 = std::chrono::steady_clock::now();
        std::string resp;
        const bool ok = c.request(req, &resp, &err) &&
                        resp.rfind("{\"ok\":true", 0) == 0;
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - rt0)
                              .count();
        local.add(ms);
        if (!ok) ++local_errors;
      }
      std::lock_guard<std::mutex> g(agg_mu);
      for (const auto& b : local.nonzero_bins()) {
        for (std::uint64_t k = 0; k < b.count; ++k) hist.add(b.lo_ms);
      }
      errors += local_errors;
    });
  }
  for (auto& t : workers) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  const double thru =
      wall_s > 0.0 ? static_cast<double>(count) / wall_s : 0.0;
  std::printf("loadgen: op=%s mode=%s count=%ld concurrency=%ld\n",
              op.c_str(), mode.c_str(), count, conc);
  std::printf("  wall %.3f s, %.1f req/s, errors %ld\n", wall_s, thru,
              errors);
  std::printf("  latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
              hist.percentile(50.0), hist.percentile(95.0),
              hist.percentile(99.0));
  metrics.put_str("loadgen.op", op);
  metrics.put_str("loadgen.mode", mode);
  metrics.put_int("loadgen.count", count);
  metrics.put_int("loadgen.concurrency", conc);
  metrics.put_int("loadgen.errors", errors);
  metrics.put_double("loadgen.wall_s", wall_s);
  metrics.put_double("loadgen.req_per_s", thru);
  metrics.put_double("loadgen.p50_ms", hist.percentile(50.0));
  metrics.put_double("loadgen.p95_ms", hist.percentile(95.0));
  metrics.put_double("loadgen.p99_ms", hist.percentile(99.0));
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto pos = args.positional();
  const std::string cmd = pos.empty() ? "" : pos[0];
  // One union list across subcommands: the guard exists to catch typos
  // (a misspelled --metrics silently dropped its output before), not to
  // police which subcommand a valid flag belongs to.
  const std::string bad_flag = args.first_unknown_flag(
      {"--matrix", "--suite", "--nt", "--sparsity", "--seed", "--iters",
       "--source", "--seed-vertex", "--alpha", "--epsilon", "--top",
       "--compare", "--verbose", "--json", "--metrics", "--trace",
       "--profile", "--socket", "--alias", "--op", "--count", "--mode",
       "--rate", "--concurrency", "--batch-k", "--deadline-ms", "--cache-mb",
       "--threads", "--timeout-ms", "--out", "--extract", "--graph",
       "--transpose", "--file", "--shards"});
  if (!bad_flag.empty()) {
    std::fprintf(stderr,
                 "error: unknown flag '%s' (see usage below)\n",
                 bad_flag.c_str());
    std::fprintf(stderr,
                 "usage: tilespmspv_cli "
                 "{list|tiles|stats|advise|spmspv|bfs|sssp|cc|ppr|convert|"
                 "mapcheck|client|loadgen} (--matrix F.mtx | --suite NAME) "
                 "[options]\n");
    return 2;
  }
  std::string metrics_path, trace_path;
  try {
    metrics_path = args.get("--metrics");
    trace_path = args.get("--trace");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  obs::MetricsRegistry metrics;
  metrics.put_str("command", cmd);
  // --profile needs span recording too: its table aggregates the same
  // spans --trace would export.
  if (!trace_path.empty() || args.has("--profile")) obs::trace_enable();

  int rc = 2;
  bool dispatched = true;
  try {
    if (cmd == "list") {
      rc = cmd_list();
    } else if (cmd == "tiles") {
      rc = cmd_tiles(args, metrics);
    } else if (cmd == "stats") {
      rc = cmd_stats(args);
    } else if (cmd == "advise") {
      rc = cmd_advise(args);
    } else if (cmd == "spmspv") {
      rc = cmd_spmspv(args, metrics);
    } else if (cmd == "bfs") {
      rc = cmd_bfs(args, metrics);
    } else if (cmd == "sssp") {
      rc = cmd_sssp(args);
    } else if (cmd == "cc") {
      rc = cmd_cc(args);
    } else if (cmd == "ppr") {
      rc = cmd_ppr(args);
    } else if (cmd == "convert") {
      rc = cmd_convert(args, metrics);
    } else if (cmd == "mapcheck") {
      rc = cmd_mapcheck(args, metrics);
    } else if (cmd == "client") {
      rc = cmd_client(args);
    } else if (cmd == "loadgen") {
      rc = cmd_loadgen(args, metrics);
    } else {
      dispatched = false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!dispatched) {
    std::fprintf(stderr,
                 "usage: tilespmspv_cli "
                 "{list|tiles|stats|advise|spmspv|bfs|sssp|cc|ppr|convert|"
                 "mapcheck} "
                 "(--matrix F.mtx | --suite NAME) [options]\n"
                 "global options: [--json] [--metrics PATH] [--trace PATH] "
                 "[--profile]\n");
    return 2;
  }

  const obs::CounterSnapshot snap = obs::counters_snapshot();
  if (args.has("--profile")) print_profile(snap);
  if (!trace_path.empty()) {
    obs::trace_disable();
    if (!obs::trace_write_chrome_json_file(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    metrics.add_counters(snap);
    if (!metrics.write_file(metrics_path)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  return rc;
}
