// tilespmspv_benchmark — runs one workload of the end-to-end benchmark and
// prints its metrics as one JSON line on stdout (progress goes to stderr).
// run_benchmark.py builds and drives it; see README.md for the workloads
// and the metric definitions.
//
//   tilespmspv_benchmark --workload bfs-road|bfs-rmat|spmspv-web|
//                                   serve-web|serve-reload
//                        [--seed N] [--seconds S] [--pass e2e|layer|smoke]
//
// The kernels run on min(4, hardware threads) threads. Files the workload
// writes (tile files, sockets, the layer pass's trace-<workload>.json) go
// to the current directory.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>

#include "harness.hpp"
#include "util/args.hpp"

using namespace tilespmspv;
using namespace tilespmspv::benchmark;

int main(int argc, char** argv) {
  Args args(argc, argv);
  try {
    args.reject_unknown({"--workload", "--seed", "--seconds", "--pass"});
    Options opt;
    opt.workload = args.get("--workload");
    opt.seed = static_cast<std::uint64_t>(args.get_int("--seed", 1));
    opt.seconds = args.get_double("--seconds", 10.0);
    opt.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                          1, 4);
    const std::string pass = args.get("--pass", "e2e");
    opt.end_to_end = pass == "e2e" || pass == "smoke";
    opt.per_layer = pass == "layer" || pass == "smoke";
    opt.smoke = pass == "smoke";
    opt.trace_path = "trace-" + opt.workload + ".json";
    if (!opt.end_to_end && !opt.per_layer) {
      throw std::invalid_argument("--pass must be e2e, layer or smoke");
    }
    if (!(opt.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be > 0");
    }

    Report report;
    if (opt.workload == "bfs-road") {
      run_bfs_road(opt, report);
    } else if (opt.workload == "bfs-rmat") {
      run_bfs_rmat(opt, report);
    } else if (opt.workload == "spmspv-web") {
      run_spmspv_web(opt, report);
    } else if (opt.workload == "serve-web") {
      run_serve_web(opt, report);
    } else if (opt.workload == "serve-reload") {
      run_serve_reload(opt, report);
    } else {
      throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
    }
    if (opt.end_to_end) report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report.write_json(std::cout, opt);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tilespmspv_benchmark: %s\n", e.what());
    return 2;
  }
}
