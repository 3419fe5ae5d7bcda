#include "serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "apps/ms_bfs.hpp"
#include "tile/tile_vector_block.hpp"

namespace tilespmspv::serve {

namespace {

/// Queue key: snapshot identity. Epoch is part of it so a reloaded matrix
/// never shares a queue (and thus a flush) with its predecessor.
std::string queue_key(const MatrixSnapshot& s) {
  return s.key + "@" + std::to_string(s.epoch);
}

constexpr int kMaxLanes = 64;  // TileVectorBlock lane width

}  // namespace

Batcher::Batcher(const BatchConfig& cfg, ThreadPool* pool)
    : cfg_(cfg), pool_(pool) {
  cfg_.max_k = std::clamp(cfg_.max_k, 1, kMaxLanes);
  if (cfg_.deadline_ms < 0.0) cfg_.deadline_ms = 0.0;
  flusher_ = std::thread([this] { flusher_loop(); });
}

Batcher::~Batcher() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  flusher_.join();
}

std::future<SparseVec<value_t>> Batcher::submit_spmspv(SnapshotPtr snap,
                                                       SparseVec<value_t> x) {
  std::promise<SparseVec<value_t>> p;
  std::future<SparseVec<value_t>> fut = p.get_future();
  if (!snap || x.n != snap->cols) {
    std::lock_guard<std::mutex> g(mu_);
    ++spmspv_queries_;
    ++errors_;
    p.set_exception(std::make_exception_ptr(std::invalid_argument(
        "spmspv: vector length does not match matrix columns")));
    return fut;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    ++spmspv_queries_;
    const std::string key = queue_key(*snap);
    SpmspvQueue* q = nullptr;
    for (auto& [k, qq] : spmspv_queues_) {
      if (k == key) {
        q = &qq;
        break;
      }
    }
    if (q == nullptr) {
      spmspv_queues_.emplace_back(key, SpmspvQueue{});
      q = &spmspv_queues_.back().second;
      q->snap = std::move(snap);
      q->oldest = std::chrono::steady_clock::now();
    }
    q->xs.push_back(std::move(x));
    q->promises.push_back(std::move(p));
  }
  cv_.notify_one();
  return fut;
}

std::future<std::vector<index_t>> Batcher::submit_bfs(SnapshotPtr snap,
                                                      index_t source) {
  std::promise<std::vector<index_t>> p;
  std::future<std::vector<index_t>> fut = p.get_future();
  if (!snap || !snap->has_transpose || source < 0 || source >= snap->rows) {
    std::lock_guard<std::mutex> g(mu_);
    ++bfs_queries_;
    ++errors_;
    p.set_exception(std::make_exception_ptr(std::invalid_argument(
        "bfs: matrix must be square and source in range")));
    return fut;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    ++bfs_queries_;
    const std::string key = queue_key(*snap);
    BfsQueue* q = nullptr;
    for (auto& [k, qq] : bfs_queues_) {
      if (k == key) {
        q = &qq;
        break;
      }
    }
    if (q == nullptr) {
      bfs_queues_.emplace_back(key, BfsQueue{});
      q = &bfs_queues_.back().second;
      q->snap = std::move(snap);
      q->oldest = std::chrono::steady_clock::now();
    }
    q->sources.push_back(source);
    q->promises.push_back(std::move(p));
  }
  cv_.notify_one();
  return fut;
}

Batcher::Stats Batcher::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return {spmspv_queries_, bfs_queries_,  flushes_,
          batched_flushes_, max_flush_k_, errors_};
}

void Batcher::flusher_loop() {
  using clock = std::chrono::steady_clock;
  const auto deadline = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double, std::milli>(cfg_.deadline_ms));
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Collect every queue that is full, past deadline, or being drained
    // at shutdown; execute outside the lock so submits stay non-blocking.
    const auto now = clock::now();
    std::vector<SpmspvQueue> sp_ready;
    std::vector<BfsQueue> bfs_ready;
    for (std::size_t i = 0; i < spmspv_queues_.size();) {
      SpmspvQueue& q = spmspv_queues_[i].second;
      if (stop_ || q.xs.size() >= static_cast<std::size_t>(cfg_.max_k) ||
          now - q.oldest >= deadline) {
        sp_ready.push_back(std::move(q));
        spmspv_queues_.erase(spmspv_queues_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < bfs_queues_.size();) {
      BfsQueue& q = bfs_queues_[i].second;
      if (stop_ || q.sources.size() >= static_cast<std::size_t>(cfg_.max_k) ||
          now - q.oldest >= deadline) {
        bfs_ready.push_back(std::move(q));
        bfs_queues_.erase(bfs_queues_.begin() +
                          static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    if (!sp_ready.empty() || !bfs_ready.empty()) {
      lk.unlock();
      for (auto& q : sp_ready) flush_spmspv(std::move(q));
      for (auto& q : bfs_ready) flush_bfs(std::move(q));
      lk.lock();
      continue;  // re-examine: more work may have queued while flushing
    }

    if (stop_ && spmspv_queues_.empty() && bfs_queues_.empty()) return;

    // Sleep until the nearest deadline (or a submit/stop notification).
    auto wake = clock::time_point::max();
    for (const auto& [k, q] : spmspv_queues_) {
      wake = std::min(wake, q.oldest + deadline);
    }
    for (const auto& [k, q] : bfs_queues_) {
      wake = std::min(wake, q.oldest + deadline);
    }
    if (wake == clock::time_point::max()) {
      cv_.wait(lk);
    } else {
      cv_.wait_until(lk, wake);
    }
  }
}

void Batcher::flush_spmspv(SpmspvQueue q) {
  const std::size_t total = q.xs.size();
  // A queue can outgrow one block between flusher wakeups; chunk at the
  // lane width so every engine call stays within 64 lanes.
  for (std::size_t lo = 0; lo < total; lo += kMaxLanes) {
    const std::size_t hi = std::min(total, lo + kMaxLanes);
    const std::size_t k = hi - lo;
    try {
      std::vector<SparseVec<value_t>> xs(
          std::make_move_iterator(q.xs.begin() +
                                  static_cast<std::ptrdiff_t>(lo)),
          std::make_move_iterator(q.xs.begin() +
                                  static_cast<std::ptrdiff_t>(hi)));
      const TileVectorBlock<value_t> xb =
          TileVectorBlock<value_t>::from_sparse(xs, q.snap->tiled.nt, pool_);
      std::vector<SparseVec<value_t>> ys =
          tile_spmspm(q.snap->tiled, xb, spmspm_ws_, pool_);
      for (std::size_t i = 0; i < k; ++i) {
        q.promises[lo + i].set_value(std::move(ys[i]));
      }
      std::lock_guard<std::mutex> g(mu_);
      ++flushes_;
      if (k > 1) ++batched_flushes_;
      max_flush_k_ = std::max<std::uint64_t>(max_flush_k_, k);
    } catch (...) {
      // A multiply cut short can leave cells of the block set; start over.
      spmspm_ws_ = SpmspvWorkspace<value_t>{};
      for (std::size_t i = lo; i < hi; ++i) {
        q.promises[i].set_exception(std::current_exception());
      }
      std::lock_guard<std::mutex> g(mu_);
      ++flushes_;
      errors_ += k;
    }
  }
}

void Batcher::flush_bfs(BfsQueue q) {
  const std::size_t total = q.sources.size();
  for (std::size_t lo = 0; lo < total; lo += kMaxLanes) {
    const std::size_t hi = std::min(total, lo + kMaxLanes);
    const std::size_t k = hi - lo;
    try {
      const std::vector<index_t> sources(
          q.sources.begin() + static_cast<std::ptrdiff_t>(lo),
          q.sources.begin() + static_cast<std::ptrdiff_t>(hi));
      MsBfsResult r = ms_bfs_tiled_on(q.snap->tiled_t, sources, pool_);
      for (std::size_t i = 0; i < k; ++i) {
        q.promises[lo + i].set_value(std::move(r.levels[i]));
      }
      std::lock_guard<std::mutex> g(mu_);
      ++flushes_;
      if (k > 1) ++batched_flushes_;
      max_flush_k_ = std::max<std::uint64_t>(max_flush_k_, k);
    } catch (...) {
      for (std::size_t i = lo; i < hi; ++i) {
        q.promises[i].set_exception(std::current_exception());
      }
      std::lock_guard<std::mutex> g(mu_);
      ++flushes_;
      errors_ += k;
    }
  }
}

}  // namespace tilespmspv::serve
