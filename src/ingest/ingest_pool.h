// IngestPool: the batched update ingestion front-end (ROADMAP "Batched
// update ingestion front-end"). Clients — potentially hundreds of them —
// submit updates/inserts into per-shard MPSC queues and block on a
// futures-style UpdateHandle; a fixed pool of workers (one per shard)
// drains its queue into batches and executes each through
// ConcurrentIndex::UpdateBatch / InsertBatch, which pay one DGL
// acquisition per batch and one page-latch + WAL round trip per target
// leaf instead of per op. The natural batch size in the closed-loop
// regime is clients / workers: 128 clients over 8 workers drain ~16 ops
// per group execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cc/concurrent_index.h"
#include "common/options.h"
#include "ingest/mpsc_queue.h"
#include "ingest/update_handle.h"

namespace burtree {

/// Counters of pool traffic (relaxed atomics, snapshotted by stats()).
struct IngestStats {
  uint64_t submitted = 0;   ///< ops accepted into a queue
  uint64_t batches = 0;     ///< UpdateBatch/InsertBatch dispatches
  uint64_t batched_ops = 0; ///< ops executed through those dispatches
  uint64_t max_batch = 0;   ///< largest single queue drain observed
  uint64_t abort_retries = 0; ///< batch re-runs after a residual DGL abort
};

/// Parses a scenario's `ingest: workers=N[,batch=K]` spec; a bare
/// integer means workers=N. Returns false (leaving `out` untouched) on
/// malformed input. An empty spec parses to the disabled default.
bool ParseIngestSpec(const std::string& spec, IngestOptions* out);

class IngestPool {
 public:
  /// Spawns options.workers workers, each owning one MPSC queue.
  /// Requires options.workers >= 1 (callers gate on workers > 0).
  IngestPool(ConcurrentIndex* index, const IngestOptions& options);

  /// Shutdown(): drains every queue, then joins the workers.
  ~IngestPool();

  IngestPool(const IngestPool&) = delete;
  IngestPool& operator=(const IngestPool&) = delete;

  /// Submits one update; the handle completes when its batch executed.
  /// Ops on one oid always land in the same queue, so per-object
  /// submission order is preserved end to end.
  UpdateHandle SubmitUpdate(ObjectId oid, const Point& from,
                            const Point& to);

  /// Submits one insert of a new object.
  UpdateHandle SubmitInsert(ObjectId oid, const Point& pos);

  /// Closed-loop conveniences: submit and wait.
  Status Update(ObjectId oid, const Point& from, const Point& to) {
    return SubmitUpdate(oid, from, to).Wait();
  }
  Status Insert(ObjectId oid, const Point& pos) {
    return SubmitInsert(oid, pos).Wait();
  }

  /// Closes every queue (pending ops still execute), joins the
  /// workers. Idempotent; the destructor calls it.
  void Shutdown();

  IngestStats stats() const;
  const IngestOptions& options() const { return options_; }

 private:
  void WorkerLoop(size_t worker);
  size_t QueueOf(ObjectId oid) const;

  ConcurrentIndex* index_;
  IngestOptions options_;
  std::vector<std::unique_ptr<MpscQueue>> queues_;
  std::vector<std::thread> workers_;
  /// Exchange picks the one caller that closes and joins; shutdown_mu_
  /// parks any racing caller until those joins finish (see Shutdown()).
  std::atomic<bool> shut_down_{false};
  std::mutex shutdown_mu_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_ops_{0};
  std::atomic<uint64_t> max_batch_{0};
  std::atomic<uint64_t> abort_retries_{0};
};

}  // namespace burtree
