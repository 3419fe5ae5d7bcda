// tilespmspv_bench — the unified benchmark orchestrator behind the
// repo-root BENCH_*.json trajectory. It runs a named tier of the figure
// benchmarks' "this work" cases through one protocol (one warmup run,
// fixed timed iterations, generator-suite matrices), rolls timings,
// counter deltas and work-model attribution up per case, stamps the run
// manifest (git SHA, build type, SIMD ISA, threads, calibrated machine
// profile), and writes one schema-versioned report.
//
//   tilespmspv_bench [--tier quick|full] [--filter fig6,fig6_batch,fig7]
//                    [--iters N] [--threads N] [--out BENCH_0009.json]
//                    [--bench-id BENCH_0009] [--no-calibrate]
//
// Tiers:
//   quick  3 small matrices per group, 5 iters — the CI regression gate
//          (tools/bench_compare diffs the fresh report against the
//          checked-in baseline).
//   full   the complete fig6/fig7/fig11 sweeps — the trajectory point a
//          PR records after a performance change.
//
// Groups: fig6 (SpMSpV over vector sparsities), fig6_batch (block-of-k
// SpMSpM vs k single multiplies at k = 64), fig7 (TileBFS), fig11
// (CSR -> tiled conversion), serve_smoke (serving-daemon request latency,
// single and 8-way burst), graph500_oOC (out-of-core R-MAT BFS: convert
// to a v2 tile file, rebuild by mmap, traverse sharded — the cases track
// convert vs map startup cost and mapped-traversal speed). --filter
// selects a comma-separated subset.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bfs/tile_bfs.hpp"
#include "core/spmspv.hpp"
#include "core/tile_spmspv.hpp"
#include "core/tile_spmspv_batch.hpp"
#include "core/work_model.hpp"
#include "formats/tile_file.hpp"
#include "gen/rmat.hpp"
#include "gen/vector_gen.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "tile/bit_tile_graph.hpp"
#include "util/args.hpp"
#include "util/simd.hpp"

using namespace tilespmspv;
using namespace tilespmspv::bench;

namespace {

#ifndef TILESPMSPV_BUILD_TYPE
#define TILESPMSPV_BUILD_TYPE "unknown"
#endif

struct Tier {
  std::vector<std::string> spmspv_matrices;
  std::vector<double> sparsities;
  std::vector<std::string> bfs_matrices;
  std::vector<std::string> convert_matrices;
  int g500_scale = 13;  // R-MAT scale of the out-of-core group
};

Tier tier_spec(const std::string& name) {
  Tier t;
  if (name == "quick") {
    t.spmspv_matrices = {"er-small", "fem-small", "web-small"};
    t.sparsities = {0.01, 0.0001};
    t.bfs_matrices = {"road-small", "rmat-small", "fem-small"};
    t.convert_matrices = {"cant", "road-small", "web-small"};
    t.g500_scale = 13;
  } else if (name == "full") {
    t.spmspv_matrices = suite_spmspv_sweep();
    t.sparsities = {0.1, 0.01, 0.001, 0.0001};
    t.bfs_matrices = suite_bfs_sweep();
    t.convert_matrices = suite_representative12();
    t.g500_scale = 16;
  } else {
    throw std::invalid_argument("unknown tier '" + name +
                                "' (expected quick|full)");
  }
  return t;
}

bool group_selected(const std::string& filter, const char* group) {
  if (filter.empty()) return true;
  // Comma-separated exact group names.
  std::size_t pos = 0;
  const std::string g(group);
  while (pos <= filter.size()) {
    const std::size_t comma = filter.find(',', pos);
    const std::size_t end = comma == std::string::npos ? filter.size() : comma;
    if (filter.compare(pos, end - pos, g) == 0) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

/// One protocol for every case: warmup once, `iters` timed runs, counters
/// snapshotted around the timed region only.
template <typename Fn>
obs::BenchCase run_case(const std::string& group, const std::string& name,
                        int iters, Fn&& fn) {
  obs::BenchCase c;
  c.name = name;
  c.group = group;
  fn();  // warm-up, outside the counter window
  const obs::CounterSnapshot before = obs::counters_snapshot();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Timer t;
    fn();
    samples.push_back(t.elapsed_ms());
  }
  c.set_counters(obs::counters_snapshot() - before);
  c.set_timing(samples);
  return c;
}

void run_fig6(const Tier& tier, int iters, ThreadPool& pool,
              const obs::MachineProfile& machine,
              std::vector<obs::BenchCase>& out) {
  for (const std::string& name : tier.spmspv_matrices) {
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
    SpmspvOperator<value_t> op(a, {}, &pool);
    for (const double sp : tier.sparsities) {
      const SparseVec<value_t> x = gen_sparse_vector(a.cols, sp, /*seed=*/1);
      const TileVector<value_t> xt =
          TileVector<value_t>::from_sparse(x, /*nt=*/16);
      obs::BenchCase c =
          run_case("fig6", "fig6/" + name + "@" + fmt(sp, 4), iters,
                   [&] { (void)op.multiply(xt); });
      // Attribution: the analytic model of the kernel the selector picks,
      // against the calibrated roofline.
      SpmspvWork w;
      switch (op.select(xt)) {
        case SpmspvKernel::kCsc:
          w = work_tile_spmspv_csc(op.matrix_transposed(), xt);
          break;
        case SpmspvKernel::kDenseSpmv:
          w = work_spmv(op.matrix());
          break;
        default:
          w = work_tile_spmspv_csr(op.matrix(), xt);
          break;
      }
      c.model = obs::attribute_case(spmspv_flops(w), spmspv_traffic_bytes(w),
                                    c.ms_best, machine);
      c.has_model = true;
      out.push_back(std::move(c));
    }
  }
}

void run_fig6_batch(const Tier& tier, int iters, ThreadPool& pool,
                    std::vector<obs::BenchCase>& out) {
  // Block-of-k amortization at the full 64-lane width: the `.block` case
  // runs the SpMSpM engine once per iteration, the `.loop` case runs the
  // same 64 vectors through 64 single multiplies. Their ratio is the
  // batching win the trajectory tracks. Vector sparsity 0.1 is the
  // frontier-like regime of the multi-source apps (most lanes active in
  // every touched tile), which is what the block engine is built for —
  // bench_ablation_batch sweeps the scattered regimes too.
  constexpr int kBatch = 64;
  for (const std::string& name : tier.spmspv_matrices) {
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
    const TileMatrix<value_t> tiled =
        TileMatrix<value_t>::from_csr(a, /*nt=*/16, /*extract_threshold=*/2);
    std::vector<TileVector<value_t>> xts;
    for (int v = 0; v < kBatch; ++v) {
      xts.push_back(TileVector<value_t>::from_sparse(
          gen_sparse_vector(a.cols, 0.1, /*seed=*/2000 + v), /*nt=*/16));
    }
    out.push_back(run_case(
        "fig6_batch", "fig6_batch/" + name + ".block", iters,
        [&] { (void)tile_spmspv_batch(tiled, xts, &pool); }));
    SpmspvWorkspace<value_t> ws;
    out.push_back(run_case("fig6_batch", "fig6_batch/" + name + ".loop",
                           iters, [&] {
                             for (const auto& xt : xts) {
                               (void)tile_spmspv(tiled, xt, ws, &pool);
                             }
                           }));
  }
}

void run_fig7(const Tier& tier, int iters, ThreadPool& pool,
              std::vector<obs::BenchCase>& out) {
  for (const std::string& name : tier.bfs_matrices) {
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
    const index_t src = max_degree_vertex(a);
    TileBfs bfs(a, {}, &pool);
    BfsWorkspace ws;
    out.push_back(run_case("fig7", "fig7/" + name, iters,
                           [&] { (void)bfs.run(src, ws); }));
  }
}

void run_fig11(const Tier& tier, int iters, ThreadPool& pool,
               std::vector<obs::BenchCase>& out) {
  for (const std::string& name : tier.convert_matrices) {
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
    // Conversion has no steady state to warm: every sample is a fresh
    // build, measured by the converter's own preprocess timer (the same
    // number bench_fig11_conversion reports).
    obs::BenchCase c;
    c.name = "fig11/" + name;
    c.group = "fig11";
    const obs::CounterSnapshot before = obs::counters_snapshot();
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      TileBfs fresh(a, {}, &pool);
      samples.push_back(fresh.preprocess_ms());
    }
    c.set_counters(obs::counters_snapshot() - before);
    c.set_timing(samples);
    out.push_back(std::move(c));
  }
}

void run_serve_smoke(const Tier& tier, int iters,
                     std::vector<obs::BenchCase>& out) {
  // In-process serving daemon (handle_line is the whole protocol minus
  // socket I/O): `.single` samples one request per timed run — its
  // p50/p95 are the unloaded request latency the trajectory tracks —
  // and `.burst8` times 8 concurrent requests landing in one admission
  // window, the batched-flush path.
  serve::ServeConfig cfg;
  cfg.batch_k = 8;
  cfg.deadline_ms = 1.0;
  cfg.threads = 4;
  for (const std::string& name : tier.spmspv_matrices) {
    serve::Server server(cfg);
    const std::string loaded = server.handle_line(
        "{\"op\":\"load\",\"suite\":\"" + name + "\",\"alias\":\"m\"}");
    if (loaded.rfind("{\"ok\":true", 0) != 0) {
      throw std::runtime_error("serve_smoke: load failed: " + loaded);
    }
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
    std::vector<std::string> reqs;
    for (unsigned seed = 1; seed <= 32; ++seed) {
      const SparseVec<value_t> x = gen_sparse_vector(a.cols, 0.01, seed);
      std::ostringstream os;
      obs::JsonWriter w(os);
      w.begin_object();
      w.key("op").value("spmspv");
      w.key("matrix").value("m");
      w.key("indices").begin_array();
      for (const index_t i : x.idx) w.value(static_cast<std::int64_t>(i));
      w.end_array();
      w.key("values").begin_array();
      for (const value_t v : x.vals) w.value(static_cast<double>(v));
      w.end_array();
      w.end_object();
      reqs.push_back(os.str());
    }
    std::size_t next = 0;
    out.push_back(run_case(
        "serve_smoke", "serve_smoke/" + name + ".single", iters * 8, [&] {
          (void)server.handle_line(reqs[next % reqs.size()]);
          ++next;
        }));
    out.push_back(run_case(
        "serve_smoke", "serve_smoke/" + name + ".burst8", iters, [&] {
          std::vector<std::thread> burst;
          for (int t = 0; t < 8; ++t) {
            burst.emplace_back([&, t] {
              (void)server.handle_line(
                  reqs[(next + static_cast<std::size_t>(t)) % reqs.size()]);
            });
          }
          for (auto& th : burst) th.join();
          next += 8;
        }));
  }
}

void run_graph500_ooc(const Tier& tier, int iters, ThreadPool& pool,
                      std::vector<obs::BenchCase>& out) {
  // Out-of-core startup trajectory: `.convert` is the one-time offline
  // cost (tiled build + v2 file write), `.mmap_load` is what a restart
  // actually pays (a single mmap + cheap structural gates), and
  // `.bfs_mapped` proves traversal speed off the mapped view under
  // sharded dispatch. The convert/mmap_load ratio is the O(mmap) startup
  // win the trajectory gates on.
  RmatParams prm;
  prm.scale = tier.g500_scale;
  prm.edge_factor = 16;
  const Csr<value_t> g = Csr<value_t>::from_coo(gen_rmat(prm, 42));
  const std::string path = "/tmp/tilespmspv_bench_g500.ttlf";
  const std::string base = "graph500_oOC/s" + std::to_string(prm.scale);
  pool.configure_shards(4);

  // Tile size must match what the file-backed TileBfs reads back, i.e.
  // the in-memory rule (order above 10,000 -> 64x64).
  const auto convert = [&] {
    if (g.rows > TileBfs::kOrderThreshold) {
      write_bit_tile_graph_file<64>(path, BitTileGraph<64>::from_csr(g, 2));
    } else {
      write_bit_tile_graph_file<32>(path, BitTileGraph<32>::from_csr(g, 2));
    }
  };
  out.push_back(run_case("graph500_oOC", base + ".convert", iters, convert));
  out.push_back(run_case("graph500_oOC", base + ".mmap_load", iters, [&] {
    TileBfs mapped(path, {}, &pool);
  }));

  TileBfs mapped(path, {}, &pool);
  const index_t src = max_degree_vertex(g);
  BfsWorkspace ws;
  out.push_back(run_case("graph500_oOC", base + ".bfs_mapped", iters,
                         [&] { (void)mapped.run(src, ws); }));
  pool.configure_shards(1);
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  try {
    args.reject_unknown({"--tier", "--filter", "--iters", "--threads",
                         "--out", "--bench-id", "--no-calibrate"});
    const std::string tier_name = args.get("--tier", "quick");
    const std::string filter = args.get("--filter");
    const int iters = static_cast<int>(args.get_int("--iters", 5));
    const auto threads =
        static_cast<std::size_t>(args.get_int("--threads", 4));
    const std::string out_path = args.get("--out", "BENCH_0009.json");
    const std::string bench_id = args.get("--bench-id", "BENCH_0009");
    if (iters < 1) throw std::invalid_argument("--iters must be >= 1");

    const Tier tier = tier_spec(tier_name);
    ThreadPool pool(threads);

    obs::BenchReport report;
    report.bench_id = bench_id;
    report.tier = tier_name;
    report.manifest.git_sha = obs::read_git_sha();
    report.manifest.build_type = TILESPMSPV_BUILD_TYPE;
    report.manifest.simd_isa = simd::active_isa();
    report.manifest.threads = static_cast<int>(threads);
    report.manifest.iters = iters;
    if (!args.has("--no-calibrate")) {
      std::cout << "calibrating machine profile...\n";
      report.manifest.machine = obs::measure_machine_profile();
      std::printf(
          "  %s, %d cores; mem %.1f GB/s, scalar %.2f GFLOP/s, "
          "simd %.2f GFLOP/s\n",
          report.manifest.machine.cpu_model.c_str(),
          report.manifest.machine.cores, report.manifest.machine.mem_bw_gbs,
          report.manifest.machine.scalar_gflops,
          report.manifest.machine.simd_gflops);
    }

    if (group_selected(filter, "fig6")) {
      std::cout << "running fig6 (SpMSpV)...\n";
      run_fig6(tier, iters, pool, report.manifest.machine, report.cases);
    }
    if (group_selected(filter, "fig6_batch")) {
      std::cout << "running fig6_batch (block-of-k SpMSpM)...\n";
      run_fig6_batch(tier, iters, pool, report.cases);
    }
    if (group_selected(filter, "fig7")) {
      std::cout << "running fig7 (TileBFS)...\n";
      run_fig7(tier, iters, pool, report.cases);
    }
    if (group_selected(filter, "fig11")) {
      std::cout << "running fig11 (conversion)...\n";
      run_fig11(tier, iters, pool, report.cases);
    }
    if (group_selected(filter, "serve_smoke")) {
      std::cout << "running serve_smoke (daemon request latency)...\n";
      run_serve_smoke(tier, iters, report.cases);
    }
    if (group_selected(filter, "graph500_oOC")) {
      std::cout << "running graph500_oOC (out-of-core R-MAT BFS)...\n";
      run_graph500_ooc(tier, iters, pool, report.cases);
    }
    if (report.cases.empty()) {
      std::fprintf(stderr, "no cases selected (filter '%s')\n",
                   filter.c_str());
      return 2;
    }

    Table table({"case", "best ms", "mean", "p50", "p95", "roofline %"});
    for (const obs::BenchCase& c : report.cases) {
      table.add_row({c.name, fmt(c.ms_best, 4), fmt(c.ms_mean, 4),
                     fmt(c.ms_p50, 4), fmt(c.ms_p95, 4),
                     c.has_model ? fmt(c.model.roofline_pct, 1) : "-"});
    }
    table.print(std::cout);

    if (!report.write_file(out_path)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::cout << report.cases.size() << " cases (" << tier_name
              << " tier) written to " << out_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
