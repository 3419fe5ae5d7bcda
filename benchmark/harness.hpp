// Shared plumbing of tilespmspv_benchmark: run options, the
// metric report every workload fills, time-bounded op blocks, set-up
// repetition, and the output checks that run outside the timers.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "formats/tile_file.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace tilespmspv::benchmark {

inline constexpr double kMiB = 1024.0 * 1024.0;
// Trace ring per thread: the traced blocks stay far below it.
inline constexpr std::size_t kTraceEventsPerThread = std::size_t{1} << 17;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // End-to-end pass: set-up repetitions plus one measured block at
  // `threads`. Layer pass: counters, the 1-thread block, the traced block
  // and the layer-by-layer set-up costs. Smoke runs both, briefly.
  bool end_to_end = true;
  bool per_layer = false;
  bool smoke = false;
  std::size_t threads = 4;  // min(4, hardware threads)
  std::string trace_path;   // Chrome trace written by the layer pass
};

/// Metrics of one run, printed as one JSON object. Every value carries its
/// unit and the number of samples it was reduced from.
class Report {
 public:
  void put(const std::string& name, double value, const char* unit,
           std::size_t n = 1) {
    metrics_[name] = {value, unit, n};
  }

  /// Counts one checked operation; wrong or failed ones never abort a run.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void add_samples(const std::vector<double>& ms) {
    samples_ms_.insert(samples_ms_.end(), ms.begin(), ms.end());
  }

  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  void write_json(std::ostream& os, const Options& opt) const {
    obs::JsonWriter w(os);
    w.begin_object();
    w.key("workload").value(opt.workload);
    w.key("seed").value(static_cast<std::uint64_t>(opt.seed));
    w.key("threads").value(static_cast<std::uint64_t>(opt.threads));
    w.key("attempted").value(attempted_);
    w.key("failed").value(failed_);
    w.key("metrics").begin_object();
    for (const auto& [name, m] : metrics_) {
      w.key(name).begin_object();
      w.key("value").value(m.value);
      w.key("unit").value(m.unit);
      w.key("n").value(static_cast<std::uint64_t>(m.n));
      w.end_object();
    }
    w.end_object();
    w.key("notes").begin_object();
    for (const auto& [k, v] : notes_) w.key(k).value(v);
    w.end_object();
    w.key("samples_ms").begin_array();
    for (const double s : samples_ms_) w.value(s);
    w.end_array();
    w.end_object();
    os << '\n';
  }

 private:
  struct Metric {
    double value;
    const char* unit;
    std::size_t n;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<double> samples_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// End-to-end numbers are medians over this many consecutive windows of a
// run, so a few seconds of host slowdown do not move them.
inline constexpr std::size_t kWindows = 10;

/// Percentile `pct` of samples in the order they completed: the median
/// over kWindows consecutive windows of equal count of each window's
/// percentile.
inline double windowed_percentile(const std::vector<double>& ordered,
                                  double pct) {
  const std::size_t w = std::max<std::size_t>(1, ordered.size() / kWindows);
  std::vector<double> per_window;
  for (std::size_t lo = 0; lo + w <= ordered.size(); lo += w) {
    const auto first = ordered.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = first + static_cast<std::ptrdiff_t>(w);
    per_window.push_back(percentile(std::vector<double>(first, last), pct));
  }
  return percentile(per_window, 50.0);
}

/// Back-to-back ops for a wall-clock budget, and at least `min_ops` of
/// them. Only the op itself is inside the per-op timer; checks run between
/// ops, so the wall budget bounds the run but not the sample count.
class Block {
 public:
  Block(double seconds, std::size_t min_ops)
      : seconds_(seconds), min_ops_(min_ops) {}

  bool more() const {
    return ms_.size() < min_ops_ || wall_.elapsed_s() < seconds_;
  }
  void add(double ms) { ms_.push_back(ms); }

  const std::vector<double>& ms() const { return ms_; }
  std::size_t count() const { return ms_.size(); }
  double mean_ms() const { return mean(ms_); }
  /// Windowed percentile of the op times (see windowed_percentile).
  double p(double pct) const { return windowed_percentile(ms_, pct); }
  /// Ops per second of busy time: the median over kWindows consecutive
  /// windows of 1000 * ops / sum of op times.
  double ops_per_s() const {
    const std::size_t w = std::max<std::size_t>(1, ms_.size() / kWindows);
    std::vector<double> rates;
    for (std::size_t lo = 0; lo + w <= ms_.size(); lo += w) {
      double total = 0.0;
      for (std::size_t i = lo; i < lo + w; ++i) total += ms_[i];
      rates.push_back(1000.0 * static_cast<double>(w) / total);
    }
    return percentile(rates, 50.0);
  }

 private:
  double seconds_;
  std::size_t min_ops_;
  Timer wall_;
  std::vector<double> ms_;
};

/// Runs `engine` ops 0, 1, 2, ... for the block budget. `engine.run(i)`
/// performs op i and returns its time in ms; `engine.check(i)` verifies
/// the op's output afterwards. `at_op(i)` is called before op i starts
/// (counter snapshots for exact per-op counts).
template <typename Engine, typename AtOp>
Block run_block(Engine& engine, double seconds, std::size_t min_ops,
                Report& report, AtOp&& at_op) {
  Block b(seconds, min_ops);
  for (std::size_t i = 0; b.more(); ++i) {
    at_op(i);
    b.add(engine.run(i));
    report.attempt(engine.check(i));
  }
  at_op(b.count());
  return b;
}

template <typename Engine>
Block run_block(Engine& engine, double seconds, std::size_t min_ops,
                Report& report) {
  return run_block(engine, seconds, min_ops, report, [](std::size_t) {});
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50.0);
}

/// Calls fn() `rounds` times on each CPU the calling thread may run on,
/// pinned to one CPU per call (CPU after CPU, round after round), then
/// restores the thread's affinity. A set-up step that runs on one thread
/// goes at the speed of the CPU it lands on, and on a shared virtual
/// machine those speeds differ by up to a third and change over minutes,
/// so a median over calls that all landed on one CPU jumps between runs.
template <typename Fn>
void on_each_cpu(int rounds, Fn&& fn) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  for (int r = 0; r < rounds; ++r) {
    for (const int c : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      sched_setaffinity(0, sizeof(one), &one);
      fn();
    }
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

/// Peak resident set of this process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

/// p50 of an empty parallel_ranges(64, 16) on `pool`: the fixed cost of
/// one pool dispatch, which the per-level BFS loops pay a few times per
/// level.
inline double dispatch_us_p50(ThreadPool& pool, int calls) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.parallel_ranges(64, 16, [](index_t, index_t) {});
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return median(us);
}

/// Deletes a file the run wrote once the run ends, on error paths too.
struct ScratchFile {
  std::string path;
  ~ScratchFile() { std::remove(path.c_str()); }
};

inline std::uint64_t hash_levels(const std::vector<index_t>& levels) {
  return fnv1a64(levels.data(), levels.size() * sizeof(index_t));
}

/// Same index set as the reference, and every value within a relative
/// 1e-9 of it (kernels may sum in a different order than the reference).
inline bool matches_reference(const SparseVec<value_t>& y,
                              const SparseVec<value_t>& ref) {
  if (y.n != ref.n || y.idx != ref.idx || y.vals.size() != ref.vals.size()) {
    return false;
  }
  for (std::size_t i = 0; i < y.vals.size(); ++i) {
    const double a = static_cast<double>(y.vals[i]);
    const double b = static_cast<double>(ref.vals[i]);
    if (std::abs(a - b) > 1e-9 * std::max(std::abs(a), std::abs(b))) {
      return false;
    }
  }
  return true;
}

/// a / b, or 0 when b is 0 (a layer the run did not exercise).
inline double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Per-op average of one counter between two snapshots.
inline double per_op(const obs::CounterSnapshot& delta, obs::Counter c,
                     std::size_t ops) {
  return ratio(static_cast<double>(delta[c]), static_cast<double>(ops));
}

/// The tiled forms SpmspvOperator builds (A and its transpose, default
/// SpmspvConfig), as the serving tile file stores them.
struct TiledPair {
  TileMatrix<value_t> a, at;
};
TiledPair convert_pair(const Csr<value_t>& a);

/// Times convert_pair and the v2 tile file write `reps` times, and the map
/// 10 * reps + 1 times, each under its own bench/* span, and reports the
/// tile.* and formats.* metrics of matrix `name` (medians).
void probe_tile_matrix_layers(const Csr<value_t>& a, const std::string& name,
                              int reps, Report& rep);

// Workload entry points (library_workloads.cpp, serve_workloads.cpp).
void run_bfs_road(const Options& opt, Report& report);
void run_bfs_rmat(const Options& opt, Report& report);
void run_spmspv_web(const Options& opt, Report& report);
void run_serve_web(const Options& opt, Report& report);
void run_serve_reload(const Options& opt, Report& report);

}  // namespace tilespmspv::benchmark
