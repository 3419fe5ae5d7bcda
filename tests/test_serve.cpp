// Serving-layer tests: matrix residency (content-keyed LRU, epoch swap),
// batch admission (k-flushes, deadline), the NDJSON protocol (in-process
// via Server::handle_line and over a real unix socket via serve::Client),
// and the snapshot-swap guarantee — a reload mid-traffic never fails an
// in-flight query.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "formats/tile_file.hpp"

#include "apps/ms_bfs.hpp"
#include "core/spmspv.hpp"
#include "gen/suite.hpp"
#include "gen/vector_gen.hpp"
#include "obs/json_value.hpp"
#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/matrix_store.hpp"
#include "serve/server.hpp"

using namespace tilespmspv;
using namespace tilespmspv::serve;

namespace {

SnapshotPtr suite_snap(const std::string& name, const std::string& alias) {
  return load_snapshot_suite(name, alias, {});
}

obs::JsonValue parse(const std::string& line) {
  obs::JsonValue v;
  EXPECT_TRUE(obs::json_parse_value(line, &v)) << line;
  return v;
}

bool ok(const obs::JsonValue& v) {
  const obs::JsonValue* o = v.find("ok");
  return o != nullptr && o->kind == obs::JsonValue::Kind::kBool && o->b;
}

/// Request-line builder for the spmspv op.
std::string spmspv_request(const std::string& matrix,
                           const SparseVec<value_t>& x) {
  std::ostringstream os;
  os.precision(17);  // full double round-trip, like the real client
  os << "{\"op\":\"spmspv\",\"matrix\":\"" << matrix << "\",\"indices\":[";
  for (std::size_t i = 0; i < x.idx.size(); ++i) {
    os << (i > 0 ? "," : "") << x.idx[i];
  }
  os << "],\"values\":[";
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    os << (i > 0 ? "," : "") << x.vals[i];
  }
  os << "]}";
  return os.str();
}

/// Decodes a spmspv response back into a SparseVec.
SparseVec<value_t> decode_vector(const obs::JsonValue& v) {
  SparseVec<value_t> y(static_cast<index_t>(v.number_or("n", 0.0)));
  const obs::JsonValue* idx = v.find("indices");
  const obs::JsonValue* vals = v.find("values");
  EXPECT_NE(idx, nullptr);
  EXPECT_NE(vals, nullptr);
  for (std::size_t i = 0; i < idx->arr.size(); ++i) {
    y.push(static_cast<index_t>(idx->arr[i].num),
           static_cast<value_t>(vals->arr[i].num));
  }
  return y;
}

}  // namespace

TEST(MatrixStore, ContentKeyIsStableAndAliasResolves) {
  MatrixStore store(1u << 30);
  SnapshotPtr a = suite_snap("er-small", "front");
  const std::string key = store.put(a, nullptr);
  // Same suite matrix under another alias hashes to the same content key.
  SnapshotPtr b = suite_snap("er-small", "other");
  EXPECT_EQ(b->key, key);

  EXPECT_NE(store.get("front"), nullptr);
  EXPECT_NE(store.get(key), nullptr);
  EXPECT_EQ(store.get("absent"), nullptr);
  const MatrixStore::Stats s = store.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(MatrixStore, ReloadSwapsEpochAndKeepsOldSnapshotAlive) {
  MatrixStore store(1u << 30);
  const std::string key = store.put(suite_snap("er-small", "m"), nullptr);
  SnapshotPtr before = store.get(key);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->epoch, 0u);

  store.put(suite_snap("er-small", "m"), nullptr);  // same content: swap
  SnapshotPtr after = store.get(key);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(store.stats().swaps, 1u);
  // The pre-swap snapshot stays valid for in-flight queries.
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_EQ(before->rows, after->rows);
}

TEST(MatrixStore, LruEvictsColdestWithinBudget) {
  SnapshotPtr a = suite_snap("er-small", "a");
  SnapshotPtr b = suite_snap("rmat-small", "b");
  // Budget fits either matrix alone but not both.
  MatrixStore store(a->bytes + b->bytes - 1);
  store.put(a, nullptr);
  EXPECT_NE(store.get("a"), nullptr);
  std::vector<std::string> evicted;
  store.put(b, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], a->key);
  EXPECT_EQ(store.get("a"), nullptr);
  EXPECT_NE(store.get("b"), nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(MatrixStore, TileFileAdmissionBindsKeyToBytesAndReportsNnz) {
  const std::string path = "/tmp/tilespmspv_serve_admit.ttlf";
  const auto a = Csr<value_t>::from_coo(suite_matrix("er-small"));
  const auto m = TileMatrix<value_t>::from_csr(a, 16, 2);
  const std::uint64_t hash = write_tile_matrix_file_v2(path, m);

  // Honest file: mmapped admission, content key = verified payload hash,
  // nnz from the mapped view (header.edges was 0 in pre-fix files).
  SnapshotPtr snap = load_snapshot_file(path, "tiled", {});
  EXPECT_TRUE(snap->mapped);
  EXPECT_EQ(snap->nnz, a.nnz());
  std::string want_key(16, '0');
  std::uint64_t h = hash;
  for (int i = 15; i >= 0; --i, h >>= 4) {
    want_key[static_cast<std::size_t>(i)] = "0123456789abcdef"[h & 0xf];
  }
  EXPECT_EQ(snap->key, want_key);

  // Forged header hash: the content key is what MatrixStore::put dedups
  // and epoch-swaps on, so an upload claiming another matrix's hash must
  // be rejected at admission, not admitted under the forged key.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in);
    bytes.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::uint64_t forged = hash ^ 0xdecafbadull;
  std::memcpy(&bytes[48], &forged, 8);  // header.payload_hash slot
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_snapshot_file(path, "forged", {}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Batcher, AccumulatesIntoMultiLaneFlushes) {
  ThreadPool pool(2);
  // Large k + long deadline: all queries land in one queue before the
  // flusher wakes, so the flush must carry k > 1.
  Batcher batcher({/*max_k=*/64, /*deadline_ms=*/50.0}, &pool);
  SnapshotPtr snap = suite_snap("er-small", "m");
  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("er-small"));

  constexpr int kQueries = 12;
  std::vector<SparseVec<value_t>> xs;
  std::vector<std::future<SparseVec<value_t>>> futs;
  for (int i = 0; i < kQueries; ++i) {
    xs.push_back(gen_sparse_vector(a.cols, 0.002,
                                   static_cast<unsigned>(i + 1)));
    futs.push_back(batcher.submit_spmspv(snap, xs.back()));
  }
  SpmspvOperator<value_t> ref(a, {}, &pool);
  for (int i = 0; i < kQueries; ++i) {
    const SparseVec<value_t> y = futs[static_cast<std::size_t>(i)].get();
    const SparseVec<value_t> want =
        ref.multiply(xs[static_cast<std::size_t>(i)]);
    ASSERT_EQ(y.idx, want.idx) << "query " << i;
    for (std::size_t j = 0; j < y.vals.size(); ++j) {
      EXPECT_NEAR(y.vals[j], want.vals[j], 1e-9);
    }
  }
  const Batcher::Stats s = batcher.stats();
  EXPECT_EQ(s.spmspv_queries, static_cast<std::uint64_t>(kQueries));
  EXPECT_GE(s.max_flush_k, 2u);      // admission actually batched
  EXPECT_GE(s.batched_flushes, 1u);  // at least one k>1 flush
  EXPECT_LT(s.flushes, static_cast<std::uint64_t>(kQueries));
}

TEST(Batcher, MismatchedVectorLengthResolvesWithError) {
  ThreadPool pool(1);
  Batcher batcher({4, 1.0}, &pool);
  SnapshotPtr snap = suite_snap("er-small", "m");
  SparseVec<value_t> bad(snap->cols + 7);
  bad.push(0, value_t{1});
  EXPECT_THROW(batcher.submit_spmspv(snap, bad).get(),
               std::invalid_argument);
  EXPECT_EQ(batcher.stats().errors, 1u);
}

TEST(ServeProtocol, LoadSpmspvMatchesReferenceOperator) {
  ServeConfig cfg;
  cfg.batch_k = 4;
  cfg.deadline_ms = 1.0;
  cfg.threads = 2;
  Server server(cfg);
  ASSERT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"er\"}"))));
  ASSERT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"rmat-small\",\"alias\":\"rmat\"}"))));
  const obs::JsonValue listed = parse(server.handle_line("{\"op\":\"list\"}"));
  ASSERT_TRUE(ok(listed));
  EXPECT_EQ(listed.find("matrices")->arr.size(), 2u);

  for (const char* cname : {"er-small", "rmat-small"}) {
    const std::string name = cname;
    const std::string alias = (name == "er-small") ? "er" : "rmat";
    const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
    SpmspvOperator<value_t> ref(a, {});
    const SparseVec<value_t> x = gen_sparse_vector(a.cols, 0.01, 7);
    const obs::JsonValue resp =
        parse(server.handle_line(spmspv_request(alias, x)));
    ASSERT_TRUE(ok(resp)) << name;
    const SparseVec<value_t> y = decode_vector(resp);
    const SparseVec<value_t> want = ref.multiply(x);
    ASSERT_EQ(y.idx, want.idx) << name;
    for (std::size_t j = 0; j < y.vals.size(); ++j) {
      EXPECT_NEAR(y.vals[j], want.vals[j], 1e-9) << name;
    }
  }
}

TEST(ServeProtocol, BfsMatchesSerialLevels) {
  ServeConfig cfg;
  cfg.threads = 2;
  Server server(cfg);
  ASSERT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"g\"}"))));
  const obs::JsonValue resp = parse(server.handle_line(
      "{\"op\":\"bfs\",\"matrix\":\"g\",\"source\":3}"));
  ASSERT_TRUE(ok(resp));
  const obs::JsonValue* levels = resp.find("levels");
  ASSERT_NE(levels, nullptr);

  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("er-small"));
  const MsBfsResult want = ms_bfs(a, {3});
  ASSERT_EQ(levels->arr.size(), want.levels[0].size());
  for (std::size_t v = 0; v < want.levels[0].size(); ++v) {
    EXPECT_EQ(static_cast<index_t>(levels->arr[v].num), want.levels[0][v])
        << "vertex " << v;
  }
}

TEST(ServeProtocol, MalformedAndUnknownRequestsFailSoftly) {
  Server server({});
  EXPECT_FALSE(ok(parse(server.handle_line("this is not json"))));
  EXPECT_FALSE(ok(parse(server.handle_line("{\"op\":\"warp\"}"))));
  EXPECT_FALSE(ok(parse(server.handle_line("{\"no_op\":1}"))));
  EXPECT_FALSE(ok(parse(server.handle_line(
      "{\"op\":\"spmspv\",\"matrix\":\"ghost\",\"indices\":[0]}"))));
  EXPECT_FALSE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"path\":\"x\"}"))));
  // Out-of-range index: trust boundary rejects, connection-level ok.
  EXPECT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"m\"}"))));
  EXPECT_FALSE(ok(parse(server.handle_line(
      "{\"op\":\"spmspv\",\"matrix\":\"m\",\"indices\":[999999]}"))));
  // The server is still healthy after every failure.
  EXPECT_TRUE(ok(parse(server.handle_line("{\"op\":\"ping\"}"))));
}

// TTLF and Matrix Market are the only file formats. A file that starts
// with a retired binary magic (TCSR, TTLM) is parsed as Matrix Market and
// refused like junk bytes, and the refusal leaves the store untouched.
TEST(ServeProtocol, RetiredBinaryMagicsAndJunkAreRefused) {
  ServeConfig cfg;
  cfg.threads = 2;
  Server server(cfg);
  ASSERT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"er\"}"))));
  const std::string listed = server.handle_line("{\"op\":\"list\"}");

  const auto with_magic = [](std::uint32_t magic) {
    std::string bytes(24, '\0');
    const std::uint32_t version = 1;
    std::memcpy(&bytes[0], &magic, sizeof(magic));  // host-endian, as written
    std::memcpy(&bytes[4], &version, sizeof(version));
    return bytes;
  };
  const std::string path = "/tmp/tilespmspv_serve_retired.bin";
  const std::string load = "{\"op\":\"load\",\"path\":\"" + path +
                           "\",\"alias\":\"retired\"}";
  for (const std::string& bytes :
       {with_magic(0x54435352u) /* TCSR */, with_magic(0x54544C4Du) /* TTLM */,
        std::string("definitely not a matrix\n\x01\x02\x03")}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(ok(parse(server.handle_line(load)))) << bytes.substr(0, 4);
    EXPECT_EQ(server.handle_line("{\"op\":\"list\"}"), listed);
  }
  std::remove(path.c_str());

  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("er-small"));
  const SparseVec<value_t> x = gen_sparse_vector(a.cols, 0.01, 11);
  EXPECT_TRUE(ok(parse(server.handle_line(spmspv_request("er", x)))));
}

TEST(ServeProtocol, StatsExposeBatchAndStoreCounters) {
  ServeConfig cfg;
  cfg.batch_k = 64;
  cfg.deadline_ms = 20.0;
  cfg.threads = 2;
  Server server(cfg);
  ASSERT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"m\"}"))));
  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("er-small"));

  // Concurrent clients inside one admission window: the flush carries
  // k > 1 (this is the batch-counter acceptance demo in test form).
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<int> oks(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const SparseVec<value_t> x =
          gen_sparse_vector(a.cols, 0.005, static_cast<unsigned>(i + 1));
      obs::JsonValue resp;
      const std::string line = server.handle_line(spmspv_request("m", x));
      oks[static_cast<std::size_t>(i)] =
          obs::json_parse_value(line, &resp) && ok(resp) ? 1 : 0;
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(oks[static_cast<std::size_t>(i)], 1);
  }

  const obs::JsonValue stats = parse(server.handle_line("{\"op\":\"stats\"}"));
  ASSERT_TRUE(ok(stats));
  const obs::JsonValue* m = stats.find("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->number_or("serve.batch.spmspv_queries", -1.0), kClients);
  EXPECT_GE(m->number_or("serve.batch.batched_flushes", -1.0), 1.0);
  EXPECT_GE(m->number_or("serve.batch.max_flush_k", -1.0), 2.0);
  EXPECT_EQ(m->number_or("serve.store.entries", -1.0), 1.0);
  EXPECT_GE(m->number_or("serve.op.spmspv.p95_ms", -1.0), 0.0);
}

TEST(ServeProtocol, SnapshotSwapMidTrafficLosesNoQueries) {
  ServeConfig cfg;
  cfg.batch_k = 4;
  cfg.deadline_ms = 0.5;
  cfg.threads = 2;
  Server server(cfg);
  ASSERT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"m\"}"))));
  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("er-small"));

  // Traffic threads hammer spmspv while the main thread reloads the
  // matrix repeatedly. Every query must succeed — queries admitted before
  // a swap run to completion on the old snapshot.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> traffic;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    traffic.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const SparseVec<value_t> x = gen_sparse_vector(
            a.cols, 0.002, static_cast<unsigned>(t * 1000 + i + 1));
        obs::JsonValue resp;
        const std::string line = server.handle_line(spmspv_request("m", x));
        if (!obs::json_parse_value(line, &resp) || !ok(resp)) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  int swaps = 0;
  for (int r = 0; r < 10; ++r) {
    const obs::JsonValue resp = parse(server.handle_line(
        "{\"op\":\"reload\",\"suite\":\"er-small\",\"alias\":\"m\"}"));
    ASSERT_TRUE(ok(resp));
    ++swaps;
  }
  for (auto& t : traffic) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const obs::JsonValue listed = parse(server.handle_line("{\"op\":\"list\"}"));
  EXPECT_EQ(listed.find("matrices")->arr[0].number_or("epoch", -1.0),
            static_cast<double>(swaps));
}

TEST(ServeSocket, FullProtocolOverUnixSocket) {
  ServeConfig cfg;
  cfg.socket_path =
      testing::TempDir() + "tilespmspv_test_serve.sock";
  cfg.threads = 2;
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client c;
  ASSERT_TRUE(c.connect(cfg.socket_path, &err)) << err;
  std::string resp;
  ASSERT_TRUE(c.request("{\"op\":\"ping\"}", &resp, &err)) << err;
  EXPECT_TRUE(ok(parse(resp)));
  ASSERT_TRUE(c.request(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"m\"}", &resp,
      &err));
  EXPECT_TRUE(ok(parse(resp)));

  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix("er-small"));
  const SparseVec<value_t> x = gen_sparse_vector(a.cols, 0.01, 5);
  ASSERT_TRUE(c.request(spmspv_request("m", x), &resp, &err));
  const obs::JsonValue v = parse(resp);
  ASSERT_TRUE(ok(v));
  SpmspvOperator<value_t> ref(a, {});
  const SparseVec<value_t> want = ref.multiply(x);
  EXPECT_EQ(decode_vector(v).idx, want.idx);

  // Two clients at once: the second connection is served concurrently.
  Client c2;
  ASSERT_TRUE(c2.connect(cfg.socket_path, &err)) << err;
  ASSERT_TRUE(c2.request("{\"op\":\"list\"}", &resp, &err));
  EXPECT_TRUE(ok(parse(resp)));

  ASSERT_TRUE(c.request("{\"op\":\"shutdown\"}", &resp, &err));
  EXPECT_TRUE(ok(parse(resp)));
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

TEST(ServeProtocol, UnloadAndEviction) {
  SnapshotPtr probe = suite_snap("er-small", "");
  ServeConfig cfg;
  // Budget below two copies: loading the second suite matrix evicts the
  // first (LRU), which the response reports.
  cfg.cache_bytes = probe->bytes + (probe->bytes / 2);
  Server server(cfg);
  ASSERT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"er-small\",\"alias\":\"a\"}"))));
  const obs::JsonValue second = parse(server.handle_line(
      "{\"op\":\"load\",\"suite\":\"rmat-small\",\"alias\":\"b\"}"));
  ASSERT_TRUE(ok(second));
  EXPECT_EQ(second.find("evicted")->arr.size(), 1u);
  const obs::JsonValue listed = parse(server.handle_line("{\"op\":\"list\"}"));
  ASSERT_EQ(listed.find("matrices")->arr.size(), 1u);
  EXPECT_EQ(listed.find("matrices")->arr[0].string_or("alias", ""), "b");

  EXPECT_TRUE(ok(parse(server.handle_line(
      "{\"op\":\"unload\",\"matrix\":\"b\"}"))));
  EXPECT_FALSE(ok(parse(server.handle_line(
      "{\"op\":\"unload\",\"matrix\":\"b\"}"))));
}
