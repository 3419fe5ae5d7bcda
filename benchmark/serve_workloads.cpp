// The serving workloads: an in-process serve::Server on a unix socket with
// the daemon's default ServeConfig (kernel pool sized like the library
// workloads), serving web-small mapped from a tile file written
// beforehand. Clients send SpMSpV requests at sparsity 0.01 over up to 4
// connections; each phase runs against a fresh server.
//
//   serve-web     light: open loop at 100 req/s. Requests arrive alone, so
//                 their latency is admission wait plus protocol.
//                 closed: 4 connections back to back, the capacity.
//   serve-reload  loaded: open loop at 200 req/s with a reload of the same
//                 file every second, so the epoch swap and the hash check
//                 compete with queries. The rate stays under half of the
//                 capacity even when the host runs at half speed: an open
//                 loop near saturation measures queue growth, not the
//                 server. closed: capacity under the same reloads.
//
// Open-loop latency runs from each request's due time, so a stall also
// charges the requests queued behind it. Every response must be ok; every
// 16th is compared with the row-wise reference after the phase.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/spmspv_reference.hpp"
#include "core/tile_spmspm.hpp"
#include "formats/tile_file.hpp"
#include "formats/validate.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "harness.hpp"
#include "obs/json_value.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tile/tile_vector_block.hpp"
#include "util/prng.hpp"

namespace tilespmspv::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConnections = 4;
constexpr std::size_t kRequests = 64;  // distinct payloads per seed
constexpr std::size_t kCheckEvery = 16;
constexpr int kLoadReps = 11;  // set-up: loads per run, median reported
constexpr double kRequestSparsity = 0.01;
constexpr std::size_t kTracedRequests = 4096;
const char* const kMatrix = "web-small";
const char* const kMatrixFile = "web-small.ttlf";

// Shares of the run budget.
constexpr double kOpenShare = 0.6;  // end-to-end pass; closed gets the rest
constexpr double kLayerOpenShare = 0.35;
constexpr double kLayerClosedShare = 0.2;
constexpr double kLayerOneThreadShare = 0.15;
constexpr double kLayerTracedShare = 0.1;

struct ServeSpec {
  const char* open_phase;  // layer-metric name of the open-loop phase
  double rate;             // open-loop requests per second
  double reload_period_s;  // 0: no reloads
};

struct ServeInput {
  Csr<value_t> a;
  std::vector<std::string> lines;        // spmspv request lines
  std::vector<SparseVec<value_t>> xs;    // their vectors
  std::vector<SparseVec<value_t>> refs;  // row-wise reference of each
};

ServeInput make_serve_input(std::uint64_t seed) {
  ServeInput in;
  in.a = Csr<value_t>::from_coo(suite_matrix(kMatrix));
  Prng rng(seed);
  for (std::size_t i = 0; i < kRequests; ++i) {
    SparseVec<value_t> x =
        gen_sparse_vector(in.a.cols, kRequestSparsity, rng.next_u64());
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.key("op").value("spmspv");
    w.key("matrix").value("m");
    w.key("indices").begin_array();
    for (const index_t j : x.idx) w.value(static_cast<std::int64_t>(j));
    w.end_array();
    w.key("values").begin_array();
    for (const value_t v : x.vals) w.value(static_cast<double>(v));
    w.end_array();
    w.end_object();
    in.lines.push_back(os.str());
    in.refs.push_back(spmspv_rowwise_reference(in.a, x));
    in.xs.push_back(std::move(x));
  }
  return in;
}

/// The "indices"/"values" members of a request or response as a sparse
/// vector of length n; false when either is missing or malformed. The
/// checks are those of the server's request parser (parse_vector in
/// src/serve/server.cpp, which the server does not export).
bool sparse_from_json(const obs::JsonValue& v, index_t n,
                      SparseVec<value_t>* out) {
  const obs::JsonValue* idx = v.find("indices");
  const obs::JsonValue* vals = v.find("values");
  if (idx == nullptr || vals == nullptr || !idx->is_array() ||
      !vals->is_array() || idx->arr.size() != vals->arr.size()) {
    return false;
  }
  *out = SparseVec<value_t>(n);
  out->reserve(idx->arr.size());
  for (std::size_t i = 0; i < idx->arr.size(); ++i) {
    if (!idx->arr[i].is_number() || !vals->arr[i].is_number()) return false;
    const double dj = idx->arr[i].num;
    const auto j = static_cast<index_t>(dj);
    if (static_cast<double>(j) != dj || j < 0 || j >= n) return false;
    out->idx.push_back(j);
    out->vals.push_back(static_cast<value_t>(vals->arr[i].num));
  }
  return true;
}

bool response_ok(const std::string& r) {
  return r.rfind("{\"ok\":true", 0) == 0;
}

bool response_matches(const std::string& r, const SparseVec<value_t>& ref) {
  obs::JsonValue v;
  SparseVec<value_t> y;
  return obs::json_parse_value(r, &v) && sparse_from_json(v, ref.n, &y) &&
         matches_reference(y, ref);
}

/// Sleeps to just before `t`, then spins: a plain sleep can wake a
/// millisecond late when the cores are busy serving.
void wait_until(Clock::time_point t) {
  std::this_thread::sleep_until(t - std::chrono::microseconds(300));
  while (Clock::now() < t) {
  }
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A fresh in-process server listening on a socket in the current
/// directory; stopped and joined on destruction.
class LiveServer {
 public:
  explicit LiveServer(std::size_t threads)
      : cfg_(config(threads)), server_(cfg_) {
    std::string err;
    if (!server_.start(&err)) {
      throw std::runtime_error("serve: cannot listen on " + cfg_.socket_path +
                               ": " + err);
    }
  }
  ~LiveServer() { server_.stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  const std::string& socket() const { return cfg_.socket_path; }

 private:
  static serve::ServeConfig config(std::size_t threads) {
    serve::ServeConfig cfg;
    cfg.socket_path = "bench-" + std::to_string(::getpid()) + ".sock";
    cfg.threads = threads;
    return cfg;
  }
  serve::ServeConfig cfg_;
  serve::Server server_;
};

std::unique_ptr<serve::Client> connect(const std::string& socket) {
  auto c = std::make_unique<serve::Client>();
  std::string err;
  if (!c->connect(socket, &err)) {
    throw std::runtime_error("serve: cannot connect: " + err);
  }
  return c;
}

/// One request; returns the response, or "" on a transport failure.
std::string request(serve::Client& c, const std::string& line) {
  std::string resp, err;
  return c.request(line, &resp, &err) ? resp : std::string();
}

const std::string& load_line() {
  static const std::string line = std::string("{\"op\":\"load\",\"path\":\"") +
                                  kMatrixFile + "\",\"alias\":\"m\"}";
  return line;
}

const std::string& reload_line() {
  static const std::string line =
      std::string("{\"op\":\"reload\",\"path\":\"") + kMatrixFile +
      "\",\"alias\":\"m\"}";
  return line;
}

/// Loads the matrix `reps` times (the first inserts, the rest epoch-swap)
/// and returns each load's time in ms. Each load has a connection, and so
/// a server thread, of its own: a load runs on one thread, at the speed of
/// the CPU that thread lands on (see on_each_cpu).
std::vector<double> load_matrix(const std::string& socket, int reps,
                                Report& rep) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto c = connect(socket);
    const auto t0 = Clock::now();
    const bool ok = response_ok(request(*c, load_line()));
    ms.push_back(ms_between(t0, Clock::now()));
    rep.attempt(ok);
    if (!ok) throw std::runtime_error("serve: load failed");
  }
  return ms;
}

struct PhaseResult {
  std::vector<double> load_ms;     // the loads before the phase
  std::vector<double> latency_ms;  // open loop: from due time
  std::vector<double> service_ms;  // from send
  std::vector<double> late_ms;     // generator lateness (open loop)
  std::vector<double> reload_ms;
  std::vector<double> done_s;  // completion times from the phase start
  double elapsed_s = 0.0;
  obs::CounterSnapshot counters;  // process-wide, over the phase
  obs::JsonValue stats;           // the server's `stats` metrics object

  double stat(const char* key) const { return stats.number_or(key, 0.0); }
  double flushes() const { return stat("serve.batch.flushes"); }
  double mean_flush_k() const {
    return ratio(stat("serve.batch.spmspv_queries"), flushes());
  }
};

/// Per-connection output, merged after the join.
struct ConnOut {
  std::vector<double> latency_ms, service_ms, late_ms, done_s;
  std::vector<std::pair<std::size_t, std::string>> kept;  // (request, resp)
  std::uint64_t attempted = 0, failed = 0;
};

/// Drives one phase against `socket`. rate > 0: open loop, request i due
/// at start + i / rate on connection i mod 4. rate == 0: closed loop, each
/// connection sends its next request when the previous one returns.
/// `ids` (traced phase) names each request's span.
PhaseResult run_phase(const std::string& socket, const ServeInput& in,
                      double rate, double seconds, double reload_period_s,
                      const std::vector<std::string>* ids, Report& rep) {
  PhaseResult out;
  std::vector<ConnOut> conns(kConnections);
  const obs::CounterSnapshot c0 = obs::counters_snapshot();
  // Connections open before the clock starts.
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < kConnections; ++c) clients.push_back(connect(socket));
  const auto reloader = connect(socket);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));

  auto drive = [&](int c) {
    ConnOut& o = conns[static_cast<std::size_t>(c)];
    serve::Client& client = *clients[static_cast<std::size_t>(c)];
    auto prev_done = start;
    if (rate <= 0.0) wait_until(start);
    for (std::size_t i = static_cast<std::size_t>(c);;
         i += static_cast<std::size_t>(kConnections)) {
      auto due = prev_done;
      if (rate > 0.0) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / rate));
        if (due >= end) break;
        wait_until(due);
      } else if (prev_done >= end) {
        break;
      }
      const auto sent = Clock::now();
      std::string resp;
      {
        obs::TraceSpan span(
            "bench/op", "bench",
            ids != nullptr && i < ids->size() ? (*ids)[i].c_str() : nullptr);
        resp = request(client, in.lines[i % kRequests]);
      }
      const auto done = Clock::now();
      const bool ok = response_ok(resp);
      ++o.attempted;
      if (!ok) ++o.failed;
      if (ok && i % kCheckEvery == 0) o.kept.emplace_back(i, std::move(resp));
      o.service_ms.push_back(ms_between(sent, done));
      o.done_s.push_back(ms_between(start, done) * 1e-3);
      if (rate > 0.0) {
        o.latency_ms.push_back(ms_between(due, done));
        // Lateness the generator itself added: time past the moment it
        // could have sent (due, or the connection freeing up).
        o.late_ms.push_back(ms_between(std::max(due, prev_done), sent));
      }
      prev_done = done;
    }
  };
  auto reload = [&] {
    if (reload_period_s <= 0.0) return;
    // Phases shorter than two periods (smoke runs) still reload once.
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(std::min(reload_period_s, seconds / 2)));
    for (auto next = start + period; next < end; next += period) {
      std::this_thread::sleep_until(next);
      const auto t0 = Clock::now();
      const bool ok = response_ok(request(*reloader, reload_line()));
      out.reload_ms.push_back(ms_between(t0, Clock::now()));
      rep.attempt(ok);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(drive, c);
  std::thread reload_thread(reload);
  for (auto& t : threads) t.join();
  reload_thread.join();
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.counters = obs::counters_snapshot() - c0;

  for (ConnOut& o : conns) {
    out.latency_ms.insert(out.latency_ms.end(), o.latency_ms.begin(),
                          o.latency_ms.end());
    out.service_ms.insert(out.service_ms.end(), o.service_ms.begin(),
                          o.service_ms.end());
    out.late_ms.insert(out.late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    out.done_s.insert(out.done_s.end(), o.done_s.begin(), o.done_s.end());
    for (std::uint64_t k = 0; k < o.attempted; ++k) {
      rep.attempt(k >= o.failed);
    }
    for (const auto& [i, resp] : o.kept) {
      rep.attempt(response_matches(resp, in.refs[i % kRequests]));
    }
  }

  obs::JsonValue stats;
  const std::string resp = request(*connect(socket), "{\"op\":\"stats\"}");
  if (!obs::json_parse_value(resp, &stats) || stats.find("metrics") == nullptr) {
    throw std::runtime_error("serve: stats failed: " + resp);
  }
  out.stats = *stats.find("metrics");
  return out;
}

/// A phase on a fresh server that first loads the matrix `loads` times.
PhaseResult fresh_phase(std::size_t threads, int loads, const ServeInput& in,
                        double rate, double seconds, double reload_period_s,
                        Report& rep,
                        const std::vector<std::string>* ids = nullptr) {
  LiveServer server(threads);
  std::vector<double> load_ms = load_matrix(server.socket(), loads, rep);
  PhaseResult r = run_phase(server.socket(), in, rate, seconds,
                            reload_period_s, ids, rep);
  r.load_ms = std::move(load_ms);
  return r;
}

/// Completed requests per second: the median over kWindows equal time
/// windows.
double requests_per_s(const PhaseResult& r) {
  const double window = r.elapsed_s / kWindows;
  std::vector<double> counts(kWindows, 0.0);
  for (const double t : r.done_s) {
    const auto w = static_cast<std::size_t>(t / window);
    counts[std::min(w, kWindows - 1)] += 1.0;
  }
  return median(counts) / window;
}

/// Open-loop latencies in the order the requests completed.
std::vector<double> latency_by_completion(const PhaseResult& r) {
  std::vector<std::size_t> order(r.latency_ms.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return r.done_s[a] < r.done_s[b];
  });
  std::vector<double> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(r.latency_ms[i]);
  return out;
}

void put_phase(Report& rep, const std::string& phase, const PhaseResult& r) {
  const std::string p = "serve." + phase + ".";
  const double server_p50 = r.stat("serve.op.spmspv.p50_ms");
  const std::size_t n = r.service_ms.size();
  rep.put(p + "server_ms_p50", server_p50, "ms", n);
  rep.put(p + "server_ms_p99", r.stat("serve.op.spmspv.p99_ms"), "ms", n);
  rep.put(p + "client_minus_server_ms_p50", median(r.service_ms) - server_p50,
          "ms", n);
  rep.put(p + "mean_flush_k", r.mean_flush_k(), "count",
          static_cast<std::size_t>(r.flushes()));
  rep.put(p + "max_flush_k", r.stat("serve.batch.max_flush_k"), "count",
          static_cast<std::size_t>(r.flushes()));
  rep.put(p + "batched_flush_frac",
          ratio(r.stat("serve.batch.batched_flushes"), r.flushes()), "ratio",
          static_cast<std::size_t>(r.flushes()));
  if (!r.late_ms.empty()) {
    const double late_p99 = percentile(r.late_ms, 99.0);
    rep.put(p + "gen_late_ms_p99", late_p99, "ms", r.late_ms.size());
    if (late_p99 > 1.0) {
      std::fprintf(stderr, "[serve] phase %s invalid: generator p99 late %.3f ms\n",
                   phase.c_str(), late_p99);
      rep.note("invalid_phase." + phase, "gen_late_ms_p99 > 1 ms");
    }
  }
}

/// Replays request lines through the layers a request passes, one at a
/// time: JSON parse, vector validation, the block engine at batch width k,
/// and response encoding. Parse and the engine are the library calls the
/// server makes. Validation (sparse_from_json) and encoding (the writer
/// below) are copies of server.cpp's parse_vector and do_spmspv writer,
/// which the server does not export: a change to those two server
/// functions does not move validate_us or encode_us, and lands in wait_ms.
void replay_layers(const ServeInput& in, const TileMatrix<value_t>& tiled,
                   ThreadPool& pool, double mean_k, double server_ms_p50,
                   int passes, Report& rep) {
  const auto k = static_cast<std::size_t>(
      std::clamp<long>(std::lround(mean_k), 1, 64));
  std::vector<double> parse_us, validate_us, engine_ms, encode_us;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t lo = 0; lo + k <= kRequests; lo += k) {
      std::vector<SparseVec<value_t>> xs(k);
      for (std::size_t j = 0; j < k; ++j) {
        Timer tp;
        obs::JsonValue req;
        const bool parsed = obs::json_parse_value(in.lines[lo + j], &req);
        parse_us.push_back(tp.elapsed_ms() * 1e3);
        Timer tv;
        const bool valid = parsed && sparse_from_json(req, tiled.cols, &xs[j]) &&
                           validate_sparse_vec(xs[j]).ok();
        validate_us.push_back(tv.elapsed_ms() * 1e3);
        rep.attempt(valid);
      }
      Timer te;
      const TileVectorBlock<value_t> xb =
          TileVectorBlock<value_t>::from_sparse(xs, tiled.nt, &pool);
      std::vector<SparseVec<value_t>> ys = tile_spmspm(tiled, xb, &pool);
      engine_ms.push_back(te.elapsed_ms() / static_cast<double>(k));
      for (std::size_t j = 0; j < k; ++j) {
        rep.attempt(matches_reference(ys[j], in.refs[lo + j]));
        Timer tc;
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.begin_object();
        w.key("ok").value(true);
        w.key("op").value("spmspv");
        w.key("epoch").value(std::uint64_t{0});
        w.key("n").value(static_cast<std::int64_t>(ys[j].n));
        w.key("nnz").value(static_cast<std::int64_t>(ys[j].nnz()));
        w.key("indices").begin_array();
        for (const index_t i : ys[j].idx) w.value(static_cast<std::int64_t>(i));
        w.end_array();
        w.key("values").begin_array();
        for (const value_t v : ys[j].vals) w.value(static_cast<double>(v));
        w.end_array();
        w.end_object();
        encode_us.push_back(tc.elapsed_ms() * 1e3);
      }
    }
  }
  const double parse = median(parse_us), validate = median(validate_us);
  const double engine = median(engine_ms), encode = median(encode_us);
  rep.put("serve.parse_us", parse, "us", parse_us.size());
  rep.put("serve.validate_us", validate, "us", validate_us.size());
  rep.put("serve.engine_ms_per_query", engine, "ms", engine_ms.size());
  rep.put("serve.encode_us", encode, "us", encode_us.size());
  rep.put("serve.wait_ms",
          server_ms_p50 - (parse + validate + encode) * 1e-3 - engine, "ms",
          parse_us.size());
}

void run_serve(const Options& opt, Report& rep, const ServeSpec& spec) {
  std::fprintf(stderr, "[%s] preparing %s, %zu requests, references\n",
               opt.workload.c_str(), kMatrix, kRequests);
  const ServeInput in = make_serve_input(opt.seed);
  // Offline step: convert and write the tile file the server maps. Its
  // cost is a layer metric (tile.convert_ms, formats.write_ms), not set-up.
  const ScratchFile file{kMatrixFile};
  {
    const TiledPair t = convert_pair(in.a);
    write_tile_matrix_file_v2(kMatrixFile, t.a, &t.at);
  }
  const int loads = opt.smoke ? 1 : kLoadReps;
  const double budget = opt.smoke ? opt.seconds / 2.0 : opt.seconds;
  const std::string open = spec.open_phase;

  if (opt.end_to_end) {
    const PhaseResult r = fresh_phase(opt.threads, loads, in, spec.rate,
                                      budget * kOpenShare,
                                      spec.reload_period_s, rep);
    rep.put("setup_s", median(r.load_ms) * 1e-3, "s", r.load_ms.size());
    const std::vector<double> latency = latency_by_completion(r);
    rep.put("op_ms_p50", windowed_percentile(latency, 50.0), "ms",
            latency.size());
    rep.put("op_ms_p90", windowed_percentile(latency, 90.0), "ms",
            latency.size());
    rep.add_samples(latency);
    const PhaseResult closed =
        fresh_phase(opt.threads, 1, in, 0.0, budget * (1.0 - kOpenShare),
                    spec.reload_period_s, rep);
    rep.put("ops_per_s", requests_per_s(closed), "1/s",
            closed.service_ms.size());
  }
  if (!opt.per_layer) return;

  {
    ThreadPool pool(opt.threads);
    const int calls = opt.smoke ? 2000 : 20000;
    const double dispatch_us = dispatch_us_p50(pool, calls);
    rep.put("parallel.dispatch_us", dispatch_us, "us",
            static_cast<std::size_t>(calls));

    const PhaseResult r = fresh_phase(opt.threads, loads, in, spec.rate,
                                      budget * kLayerOpenShare,
                                      spec.reload_period_s, rep);
    rep.put("serve.load_ms", median(r.load_ms), "ms", r.load_ms.size());
    put_phase(rep, open, r);
    if (!r.reload_ms.empty()) {
      rep.put("serve." + open + ".reload_ms_p50", median(r.reload_ms), "ms",
              r.reload_ms.size());
    }
    const double requests = static_cast<double>(r.service_ms.size());
    const double loops = static_cast<double>(r.counters[obs::Counter::kPoolLoops]);
    rep.put("parallel.dispatches_per_op", loops / requests, "count",
            r.service_ms.size());
    rep.put("parallel.chunks_per_dispatch",
            ratio(static_cast<double>(r.counters[obs::Counter::kPoolChunks]),
                  loops),
            "count", r.service_ms.size());
    rep.put("parallel.dispatch_share",
            dispatch_us * 1e-3 * loops / requests / mean(r.service_ms), "ratio",
            r.service_ms.size());

    const PhaseResult closed =
        fresh_phase(opt.threads, 1, in, 0.0, budget * kLayerClosedShare,
                    spec.reload_period_s, rep);
    put_phase(rep, "closed", closed);
    const double flushes = closed.flushes();
    rep.put("core.batch_lane_macs_per_flush",
            ratio(static_cast<double>(
                      closed.counters[obs::Counter::kBatchLaneMacs]),
                  flushes),
            "count", static_cast<std::size_t>(flushes));
    rep.put("core.batch_tiles_shared_per_flush",
            ratio(static_cast<double>(
                      closed.counters[obs::Counter::kBatchTilesShared]),
                  flushes),
            "count", static_cast<std::size_t>(flushes));

    const PhaseResult one =
        fresh_phase(1, 1, in, 0.0, budget * kLayerOneThreadShare,
                    spec.reload_period_s, rep);
    rep.put("parallel.ops_per_s_1t", requests_per_s(one), "1/s",
            one.service_ms.size());
    rep.put("parallel.speedup_vs_1t", requests_per_s(closed) / requests_per_s(one),
            "x", one.service_ms.size());

    std::vector<std::string> ids;
    for (std::size_t i = 0; i < kTracedRequests; ++i) {
      ids.push_back("request " + std::to_string(i));
    }
    obs::trace_enable(kTraceEventsPerThread);
    probe_tile_matrix_layers(in.a, kMatrix, opt.smoke ? 1 : 3, rep);
    const PhaseResult traced =
        fresh_phase(opt.threads, 1, in, 0.0, budget * kLayerTracedShare,
                    spec.reload_period_s, rep, &ids);
    obs::trace_disable();
    if (!obs::trace_write_chrome_json_file(opt.trace_path)) {
      throw std::runtime_error("cannot write " + opt.trace_path);
    }
    rep.put("trace.overhead_pct",
            (requests_per_s(closed) / requests_per_s(traced) - 1.0) * 100.0, "%",
            traced.service_ms.size());

    const MappedTileMatrix mapped = map_tile_matrix_file(kMatrixFile);
    replay_layers(in, mapped.tiled, pool, r.mean_flush_k(),
                  r.stat("serve.op.spmspv.p50_ms"), opt.smoke ? 1 : 4, rep);
  }
}

}  // namespace

void run_serve_web(const Options& opt, Report& rep) {
  run_serve(opt, rep, {"light", 100.0, 0.0});
}

void run_serve_reload(const Options& opt, Report& rep) {
  run_serve(opt, rep, {"loaded", 200.0, 1.0});
}

}  // namespace tilespmspv::benchmark
