// Sharded LRU buffer pool over a PageStore. Sized as a fraction of the
// database (paper §5: buffers of 0%..10% of database size, default 1%).
// Capacity 0 degenerates to pass-through: every access is a disk access,
// matching the paper's "no buffer" configuration.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace burtree {

class WalManager;

/// N-way sharded buffer pool: pages hash to shards by page id, and each
/// shard owns its own latch, frame table, LRU list, and BufferStats. The
/// global capacity is split evenly across shards, so shard count 1 is
/// exactly the classic single-latch LRU pool.
///
/// Thread-safety: fully thread-safe. Every per-page operation takes only
/// that page's shard latch, so operations on pages in different shards
/// never contend; pool-wide operations (FlushAll, Resize, stats) visit
/// shards one at a time and hold at most one latch at once. A returned
/// Page* stays valid while the caller holds a pin; its pin count is only
/// mutated under the owning shard's latch, but concurrent writers to the
/// page *data* must be serialized by a higher layer (the R-tree latch or
/// DGL locks).
///
/// All disk I/O runs with no shard latch held (the full protocol tables
/// live in docs/STORAGE.md):
///
/// - **Miss path**: a fetch that misses registers the page in a
///   per-shard miss-in-flight table, drops the latch, reads the page
///   from the store, re-latches and publishes the frame (condition
///   variable notify). Concurrent fetches of the *same* page wait on the
///   shard's cv instead of issuing a duplicate read; fetches of other
///   pages in the shard — hits or misses — proceed during the read, so a
///   slow page read stalls only waiters on that page, not the shard.
/// - **Eviction write-back**: clean victims are dropped with no I/O;
///   dirty victims are detached into a per-shard write-back table under
///   the latch, written back latch-free as one PageStore::FlushDirtyBatch
///   group write, then the table is cleared. Only a fetch/delete of a
///   page whose write-back is still in flight waits (it can never
///   observe stale disk bytes).
///
/// With a WalManager attached (set_wal), the pool additionally enforces
/// the **log-before-flush** invariant: a dirty frame whose page LSN is
/// not yet durable — or that an open WalOpScope has captured but not
/// committed (wal_pending) — is never written back. Eviction *skips*
/// such victims (rotating them to the LRU front, running over budget if
/// need be) rather than blocking on the log, so no op scope ever waits
/// on the committer; FlushAll/FlushPage instead wait for durability
/// first and must therefore not be called from inside an op scope.
/// Dirty unpins outside any scope get a pool-created single-page auto
/// scope; DeletePage defers the store-level Free until the freeing
/// record is durable. Protocol details in docs/STORAGE.md §WAL.
class BufferPool {
 public:
  /// `capacity` is the maximum number of resident unpinned+pinned frames
  /// across all shards; 0 means pass-through (no caching). `shards` is
  /// clamped to at least 1.
  BufferPool(PageStore* file, size_t capacity, size_t shards = 1);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the pinned page image for `id`, reading from disk on a miss
  /// (with no shard latch held — see above). Callers must Unpin()
  /// exactly once.
  StatusOr<Page*> FetchPage(PageId id);

  /// Copies the page image of `id` into `dst` (file()->page_size()
  /// bytes) and leaves the pool exactly as FetchPage + UnpinPage(id,
  /// false) would: same hit/miss counts, same LRU order, same evictions.
  /// A hit is one shard-latch section that never pins; a miss goes
  /// through FetchPage (coalescing with an in-flight read of the page)
  /// and unpins. Never dirties the frame. The caller must exclude
  /// writers of the page for the duration — the optimistic query
  /// descent holds the page's stripe shared.
  Status CopyPage(PageId id, uint8_t* dst);

  /// Allocates a new page on disk and returns it pinned and dirty.
  Page* NewPage();

  /// Drops the pin. `dirty` marks the frame as modified; it will be
  /// written back on eviction or flush.
  void UnpinPage(PageId id, bool dirty);

  /// Writes the frame back if dirty. No-op if not resident.
  Status FlushPage(PageId id);

  /// Writes back all dirty frames, one batched group write per shard
  /// (call before reading final I/O stats so buffered writes are
  /// accounted).
  Status FlushAll();

  /// Discards the frame (must be unpinned) and frees the disk page.
  Status DeletePage(PageId id);

  /// Re-sizes the pool; excess unpinned frames are evicted immediately
  /// (dirty victims leave in one group write per shard).
  void Resize(size_t capacity);

  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  size_t num_shards() const { return shards_.size(); }
  /// Which shard serves `id` (exposed for the eviction-order tests).
  size_t shard_of(PageId id) const { return id % shards_.size(); }
  /// Frame budget of shard `s` under the current capacity split.
  size_t shard_capacity(size_t s) const;

  size_t resident_frames() const;
  /// Merged counters across shards (the classic single-pool view).
  BufferStats stats() const;
  /// Per-shard counters plus totals, for the benches and metrics layer.
  BufferPoolStats pool_stats() const;
  void ResetStats();

  PageStore* file() { return file_; }

  /// Attaches the write-ahead log (null detaches). Must be called before
  /// any page traffic; the pool does not own the manager, and the
  /// manager must outlive the pool (the destructor's FlushAll waits on
  /// it).
  void set_wal(WalManager* wal) { wal_ = wal; }
  WalManager* wal() const { return wal_; }

  /// Called by WalOpScope::Commit() after its record is appended: stamps
  /// the frame's page LSN (monotone max) and releases one wal-pending
  /// mark. Takes the Page pointer the scope captured — the frame cannot
  /// have moved or been evicted while wal_pending > 0, and DeletePage
  /// routes through WalOpScope::DeferFree which drops the scope's
  /// pointer, so no frame-table lookup is needed here.
  void StampWalLsn(Page* page, uint64_t lsn);

  /// Fuzzy-checkpoint support (WalManager::Checkpoint runs concurrently
  /// with operations; see the protocol there). BeginSync is called after
  /// FlushAll and immediately before the store sync: it drains in-flight
  /// eviction write-backs (their pwrites must precede the fsync they
  /// rely on) and resets the unsynced-write floor accumulator — every
  /// floor entry discarded here is covered by that upcoming sync.
  void WalCheckpointBeginSync();
  /// The pool's recovery floor: the minimum wal_rec_lsn over all dirty
  /// frames (resident or mid-write-back) combined with the accumulator
  /// of frames whose bytes were written to the store since BeginSync but
  /// not yet synced. Truncating the log below this LSN can lose the only
  /// durable copy of a page's changes. UINT64_MAX when nothing is owed.
  uint64_t WalDirtyRecFloor() const;

 private:
  /// Intrusive LRU links: a frame is on its shard's list iff prev is
  /// non-null, so no LRU operation allocates.
  struct LruLink {
    LruLink* prev = nullptr;
    LruLink* next = nullptr;
  };

  struct Frame : LruLink {
    explicit Frame(size_t page_size) : page(page_size) {}
    bool in_lru() const { return prev != nullptr; }
    Page page;
  };

  struct Shard {
    Shard() { lru.prev = lru.next = &lru; }
    mutable std::mutex mu;
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames;
    /// Circular list through the sentinel: next = most recent, prev =
    /// the eviction victim. Holds exactly the unpinned resident frames.
    LruLink lru;
    size_t lru_size = 0;
    /// Dirty victims whose batched write-back is running latch-free;
    /// removed (and writeback_cv notified) once the batch lands.
    std::unordered_map<PageId, std::unique_ptr<Frame>> writeback;
    std::condition_variable writeback_cv;
    /// Pages whose miss read is running latch-free; removed (and
    /// miss_cv notified) once the read lands or fails. Concurrent
    /// fetches of a listed page wait instead of reading twice.
    std::unordered_set<PageId> miss_inflight;
    std::condition_variable miss_cv;
    /// Signaled by UnpinPage when a pin count drops to zero while a
    /// DeletePage is waiting out a transient pin (see delete_waiters).
    std::condition_variable pin_cv;
    int delete_waiters = 0;
    BufferStats stats;
    size_t capacity = 0;
  };

  Shard& ShardFor(PageId id) { return *shards_[shard_of(id)]; }

  // LRU list primitives; shard latch held.
  static void LruPushFront(Shard& shard, Frame* f);
  static void LruPushBack(Shard& shard, Frame* f);
  static void LruErase(Shard& shard, Frame* f);

  /// Detaches LRU victims under `lock`, then — if any were dirty —
  /// releases the latch, writes them back as one group write, re-latches
  /// and clears the in-flight table. `lock` is held again on return.
  void EvictToCapacity(Shard& shard, std::unique_lock<std::mutex>& lock);
  /// Settles a landed (or failed) eviction write-back: clears the
  /// in-flight entries on success, re-adopts the victims as dirty
  /// resident frames on error, and notifies writeback_cv. Shard latch
  /// held; runs on the evicting thread.
  void FinishWritebackLocked(Shard& shard,
                             const std::vector<PageId>& dirty_ids,
                             const Status& flush_status);
  /// Blocks until `id` has no write-back in flight (lock released while
  /// waiting, held again on return).
  void WaitForWriteback(Shard& shard, std::unique_lock<std::mutex>& lock,
                        PageId id);
  /// Blocks until `id` has neither a write-back nor a miss read in
  /// flight (lock released while waiting, held again on return). On
  /// return the caller must re-inspect the frame table: the miss may
  /// have published a frame, or failed and published nothing.
  void WaitForPageIo(Shard& shard, std::unique_lock<std::mutex>& lock,
                     PageId id);
  // Assume the shard's mu is held.
  Status FlushFrameLocked(Shard& shard, Frame& f);
  /// After a frame's bytes were written to the store in place (frame
  /// stays resident): fold its recovery floor into the unsynced-write
  /// accumulator and clear it. Shard latch held.
  void NoteWalStoreWrite(Page& page);
  void RecomputeShardCapacities();

  PageStore* file_;
  WalManager* wal_ = nullptr;
  /// Min wal_rec_lsn of frames whose bytes reached the store (in-place
  /// flush or eviction) since the last WalCheckpointBeginSync — writes
  /// the next store sync has not yet made durable. CAS-min updated under
  /// the owning shard's latch, read/reset by the checkpoint.
  std::atomic<uint64_t> wal_unsynced_rec_floor_{UINT64_MAX};
  // Atomic so a concurrent Resize() never races capacity()/
  // shard_capacity() readers; shard budgets are updated under each
  // shard's latch and may transiently disagree with a mid-resize total.
  // resize_mu_ serializes whole resizes so the disagreement is only
  // ever transient.
  std::mutex resize_mu_;
  std::atomic<size_t> capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace burtree
