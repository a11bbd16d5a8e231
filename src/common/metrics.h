// Thread-safe counters for the paper's performance metrics: disk I/O
// (page reads / writes below the buffer pool), buffer hits, and CPU time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace burtree {

/// Cumulative I/O statistics. All counters are atomic so the concurrent
/// throughput experiment can share one instance across threads.
class IoStats {
 public:
  void RecordRead() { reads_.fetch_add(1, std::memory_order_relaxed); }
  void RecordWrite() { writes_.fetch_add(1, std::memory_order_relaxed); }
  /// Batched variant for the group write-back path.
  void RecordWrites(uint64_t n) {
    writes_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  /// Total disk accesses: the paper's headline metric.
  uint64_t total_io() const { return reads() + writes(); }

  void Reset() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
  }

  std::string ToString() const;

 private:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
};

/// Snapshot of an IoStats for interval measurement (stats at t1 - t0).
struct IoSnapshot {
  uint64_t reads = 0;
  uint64_t writes = 0;

  static IoSnapshot Take(const IoStats& s) {
    return IoSnapshot{s.reads(), s.writes()};
  }
  IoSnapshot operator-(const IoSnapshot& o) const {
    return IoSnapshot{reads - o.reads, writes - o.writes};
  }
  uint64_t total_io() const { return reads + writes; }
};

/// Buffer-pool counters (above the disk: hits never reach IoStats).
/// Plain integers — each instance is owned by exactly one pool shard and
/// only mutated under that shard's latch; cross-shard reads go through
/// BufferPool::stats(), which snapshots every shard under its latch.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;

  BufferStats& operator+=(const BufferStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    flushes += o.flushes;
    return *this;
  }
  double hit_rate() const {
    const uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  std::string ToString() const;
};

/// Aggregate view over a sharded buffer pool: one BufferStats per shard
/// plus the merged total. Produced by BufferPool::pool_stats(); consumed
/// by the benches to report per-shard balance alongside the totals.
struct BufferPoolStats {
  std::vector<BufferStats> shards;

  BufferStats total() const {
    BufferStats t;
    for (const auto& s : shards) t += s;
    return t;
  }
  /// max/mean of per-shard (hits+misses): 1.0 = perfectly balanced hash.
  double imbalance() const;
  std::string ToString() const;
};

/// Client-observed per-operation latency distribution (microseconds):
/// mean plus the p50/p99 tail the batched-ingestion study reports —
/// group execution trades a longer per-op wait for amortized fixed
/// costs, and the tail is where that trade shows.
struct LatencySummary {
  uint64_t samples = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Nearest-rank percentile over nanosecond samples; reorders `samples`
/// in place (nth_element). p in [0, 100].
uint64_t PercentileNs(std::vector<uint64_t>& samples, double p);

/// Summarizes nanosecond samples into the microsecond mean/p50/p99
/// triple; reorders `samples` in place.
LatencySummary SummarizeLatencyNs(std::vector<uint64_t>& samples);

/// Simple wall-clock stopwatch for the CPU-time series of Figures 5(c)/(d).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void Restart() { start_ = Clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace burtree
