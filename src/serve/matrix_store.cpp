#include "serve/matrix_store.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "formats/mm_io.hpp"
#include "formats/tile_file.hpp"
#include "formats/validate.hpp"
#include "gen/suite.hpp"
#include "obs/counters.hpp"
#include "parallel/atomics.hpp"

namespace tilespmspv::serve {

namespace {

/// 16 lowercase hex chars of a 64-bit hash — the content-key rendering.
std::string key_of_hash(std::uint64_t h) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[h & 0xf];
    h >>= 4;
  }
  return out;
}

/// Chunked FNV-1a over a whole stream (from its current position), charged
/// to the hash_bytes counter. Never materializes the stream: 64 KiB at a
/// time, so hashing a multi-GB matrix file costs one buffer.
std::uint64_t hash_stream(std::istream& in) {
  char buf[64 * 1024];
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::uint64_t total = 0;
  while (in) {
    in.read(buf, sizeof(buf));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    h = tilespmspv::fnv1a64(buf, got, h);
    total += got;
  }
  obs::counter_add(obs::Counter::kHashBytes, total);
  return h;
}

/// Approximate resident footprint of a tiled matrix: the payload vectors
/// (values, indices, pointers, side COO, run list, strategy bytes).
std::size_t tile_matrix_bytes(const TileMatrix<value_t>& m) {
  auto vec_bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t b = 0;
  b += vec_bytes(m.tile_row_ptr) + vec_bytes(m.tile_col_id);
  b += vec_bytes(m.tile_nnz_ptr) + vec_bytes(m.intra_row_ptr);
  b += vec_bytes(m.local_col) + vec_bytes(m.vals);
  b += vec_bytes(m.extracted.row_idx) + vec_bytes(m.extracted.col_idx) +
       vec_bytes(m.extracted.vals);
  b += vec_bytes(m.side_col_ptr) + vec_bytes(m.side_row_idx) +
       vec_bytes(m.side_vals) + vec_bytes(m.side_row_ptr);
  b += vec_bytes(m.row_chunk_ptr) + vec_bytes(m.run_ptr) +
       vec_bytes(m.row_runs) + vec_bytes(m.tile_strategy);
  return b;
}

}  // namespace

SnapshotPtr build_snapshot(const Csr<value_t>& a, std::string key,
                           std::string alias, std::string source,
                           const SpmspvConfig& cfg) {
  // Trust boundary: the matrix may come from an arbitrary client upload.
  const ValidationResult vr = validate_csr(a);
  if (!vr.ok()) {
    throw std::invalid_argument("matrix failed validation: " + vr.message());
  }
  auto snap = std::make_shared<MatrixSnapshot>();
  snap->key = std::move(key);
  snap->alias = std::move(alias);
  snap->source = std::move(source);
  snap->rows = a.rows;
  snap->cols = a.cols;
  snap->nnz = a.nnz();
  snap->tiled = TileMatrix<value_t>::from_csr(a, cfg.nt, cfg.extract_threshold);
  if (a.rows == a.cols) {
    // BFS expand operand: unit-weight tiled transpose (see apps/ms_bfs.hpp).
    Csr<value_t> at = a.transpose();
    for (auto& v : at.vals) v = value_t{1};
    snap->tiled_t =
        TileMatrix<value_t>::from_csr(at, cfg.nt, cfg.extract_threshold);
    snap->has_transpose = true;
  }
  snap->bytes = sizeof(MatrixSnapshot) + tile_matrix_bytes(snap->tiled) +
                tile_matrix_bytes(snap->tiled_t);
  return snap;
}

namespace {

/// Zero-copy admission of a pre-converted v2 tile file: one mmap, cheap
/// structural gates plus a full deep validation of the mapped view (the
/// file is an arbitrary client upload). The content key is the header's
/// payload hash, verified against the mapped bytes once at admission —
/// MatrixStore::put treats an equal key as "same content" and epoch-swaps
/// the resident snapshot, so a forged header hash must not be allowed to
/// replace another matrix's cache entry under its key.
SnapshotPtr load_snapshot_tile_file(const std::string& path,
                                    std::string alias) {
  MappedTileMatrix m =
      map_tile_matrix_file(path, /*verify_hash=*/true, /*deep_validate=*/true);
  // verify_hash re-read the payload sections (the whole file minus header,
  // section table and alignment padding — file_bytes is the honest bound).
  obs::counter_add(obs::Counter::kHashBytes, m.header.file_bytes);
  auto snap = std::make_shared<MatrixSnapshot>();
  snap->key = key_of_hash(m.header.payload_hash);
  snap->alias = std::move(alias);
  snap->source = "file:" + path;
  snap->rows = m.tiled.rows;
  snap->cols = m.tiled.cols;
  // From the mapped view, not header.edges: exact by construction, and
  // files written before the header carried a matrix edge count stay
  // servable with a correct nnz.
  snap->nnz = m.tiled.total_nnz();
  // Footprint = the mapped pages; both orientations are views into the
  // same mapping, so the file size is counted once.
  snap->bytes = sizeof(MatrixSnapshot) +
                static_cast<std::size_t>(m.header.file_bytes);
  snap->tiled = std::move(m.tiled);
  snap->tiled_t = std::move(m.tiled_t);
  snap->has_transpose = m.has_transpose;
  snap->mapped = true;
  return snap;
}

}  // namespace

SnapshotPtr load_snapshot_file(const std::string& path, std::string alias,
                               const SpmspvConfig& cfg) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open matrix file: " + path);
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (in && magic == kTileFileMagic) {
    in.close();
    return load_snapshot_tile_file(path, std::move(alias));
  }
  // Anything else is Matrix Market, whose parser rejects what is not.
  // Content key: chunked stream-hash of the raw bytes (never materializes
  // the file), then rewind and parse straight from the stream.
  in.clear();
  in.seekg(0);
  std::string key = key_of_hash(hash_stream(in));
  in.clear();
  in.seekg(0);
  const Csr<value_t> a = Csr<value_t>::from_coo(read_matrix_market(in));
  return build_snapshot(a, std::move(key), std::move(alias), "file:" + path,
                        cfg);
}

SnapshotPtr load_snapshot_suite(const std::string& name, std::string alias,
                                const SpmspvConfig& cfg) {
  const Csr<value_t> a = Csr<value_t>::from_coo(suite_matrix(name));
  // Content key: chained hash over the CSR header fields and arrays — the
  // identity the serialized form pins down, without materializing the
  // serialized bytes. The same suite matrix loaded under two aliases still
  // shares one cache entry.
  const std::int64_t dims[2] = {a.rows, a.cols};
  std::uint64_t h = tilespmspv::fnv1a64(dims, sizeof(dims));
  h = tilespmspv::fnv1a64(a.row_ptr.data(),
                          a.row_ptr.size() * sizeof(offset_t), h);
  h = tilespmspv::fnv1a64(a.col_idx.data(),
                          a.col_idx.size() * sizeof(index_t), h);
  h = tilespmspv::fnv1a64(a.vals.data(), a.vals.size() * sizeof(value_t), h);
  obs::counter_add(obs::Counter::kHashBytes,
                   sizeof(dims) + a.row_ptr.size() * sizeof(offset_t) +
                       a.col_idx.size() * sizeof(index_t) +
                       a.vals.size() * sizeof(value_t));
  return build_snapshot(a, key_of_hash(h), std::move(alias), "suite:" + name,
                        cfg);
}

SnapshotPtr MatrixStore::get(const std::string& key_or_alias) {
  std::lock_guard<std::mutex> g(mu_);
  Entry* e = find_locked(key_or_alias);
  if (e == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  e->tick = ++tick_;
  spin_lock(&e->lock);
  SnapshotPtr snap = e->snap;  // refcount bump: query owns this snapshot
  spin_unlock(&e->lock);
  return snap;
}

std::string MatrixStore::put(SnapshotPtr snap,
                             std::vector<std::string>* evicted) {
  std::string key = snap->key;
  std::lock_guard<std::mutex> g(mu_);
  for (auto& [k, e] : entries_) {
    if (k != key) continue;
    // Same content already resident: epoch-style swap. Readers that copied
    // the old pointer finish on the old snapshot; the swap itself sits
    // behind the entry spin lock so a concurrent get() never observes a
    // half-written pointer.
    auto next = std::make_shared<MatrixSnapshot>(*snap);
    spin_lock(&e->lock);
    next->epoch = e->snap->epoch + 1;
    resident_bytes_ -= e->snap->bytes;
    resident_bytes_ += next->bytes;
    e->snap = std::move(next);
    spin_unlock(&e->lock);
    e->tick = ++tick_;
    ++swaps_;
    return key;
  }
  auto e = std::make_unique<Entry>();
  resident_bytes_ += snap->bytes;
  e->snap = std::move(snap);
  e->tick = ++tick_;
  entries_.emplace_back(key, std::move(e));
  evict_locked(key, evicted);
  return key;
}

bool MatrixStore::erase(const std::string& key_or_alias) {
  std::lock_guard<std::mutex> g(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first != key_or_alias && it->second->snap->alias != key_or_alias) {
      continue;
    }
    resident_bytes_ -= it->second->snap->bytes;
    entries_.erase(it);
    return true;
  }
  return false;
}

std::vector<MatrixStore::Info> MatrixStore::list() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Info> out;
  out.reserve(entries_.size());
  for (const auto& [k, e] : entries_) {
    const MatrixSnapshot& s = *e->snap;
    out.push_back(
        {k, s.alias, s.source, s.rows, s.cols, s.nnz, s.bytes, s.epoch});
  }
  return out;
}

MatrixStore::Stats MatrixStore::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return {hits_, misses_,          evictions_,
          swaps_, resident_bytes_, entries_.size()};
}

MatrixStore::Entry* MatrixStore::find_locked(const std::string& key_or_alias) {
  for (auto& [k, e] : entries_) {
    if (k == key_or_alias || e->snap->alias == key_or_alias) return e.get();
  }
  return nullptr;
}

void MatrixStore::evict_locked(const std::string& keep_key,
                               std::vector<std::string>* evicted) {
  while (resident_bytes_ > capacity_bytes_ && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep_key) continue;
      if (victim == entries_.end() || it->second->tick < victim->second->tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;
    resident_bytes_ -= victim->second->snap->bytes;
    if (evicted != nullptr) evicted->push_back(victim->first);
    entries_.erase(victim);
    ++evictions_;
  }
}

}  // namespace tilespmspv::serve
