// WalManager: redo-only ARIES-lite write-ahead log with buffered group
// commit. Operations bracket themselves in a WalOpScope; the buffer pool
// captures the after-image of every page the scope dirties; the scope's
// Commit() appends ONE record holding all of them — appended *before the
// operation releases its page latches*, so the log order of any page's
// images equals its mutation order and every durable log prefix is
// causally closed. A dedicated committer thread batches appended bytes
// into one pwrite + fdatasync per group-commit window, so N concurrent
// writers amortize a single fsync (vs fsync-per-flush on the page store).
//
// Invariants (enforced together with BufferPool; docs/STORAGE.md §WAL):
//   * log-before-flush: a dirty frame never reaches the page store until
//     its page LSN is durable (eviction skips undurable victims).
//   * op atomicity: all images of one logical operation live in one
//     CRC-framed record; replay applies whole records only.
//   * deferred frees: a freed page's slot is returned to the store's
//     free list only once the freeing record is durable, so slot reuse
//     can never clobber bytes replay still needs.
//   * fuzzy checkpoint: operations keep running while the checkpoint
//     flushes + syncs the pool; the truncation cut never passes the
//     pool's recovery floor (min wal_rec_lsn over dirty frames plus the
//     unsynced-write accumulator — ARIES recLSN), and records at or past
//     the cut are carried byte-for-byte into the fresh log file.
//
// Lock order: page latches -> buffer shard latch -> wal mutex.
// Checkpoint: checkpoint_mu_ -> shard latches (via the pool hooks) ->
// wal mutex; it never touches page latches and never blocks op scopes —
// only the final drain-copy-rename step holds the wal mutex, stalling
// appends for a few milliseconds. FlushAll/FlushPage must not be called
// from inside a WalOpScope (they wait for the scope's own record to
// become durable).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/wal/wal_format.h"

namespace burtree {

class BufferPool;
class Page;
class PageStore;

struct WalManagerOptions {
  /// Log file path (created; an existing file is truncated — recovery
  /// replays *before* opening a fresh WalManager on the same path).
  std::string path;

  size_t page_size = 1024;

  /// Group-commit window: how long the committer waits collecting
  /// appends before issuing the batched pwrite + fdatasync. WaitDurable
  /// callers cut the window short.
  uint64_t group_commit_us = 200;

  /// Auto-checkpoint once the log file exceeds this many bytes
  /// (0 = manual checkpoints only).
  uint64_t checkpoint_log_bytes = 64ull << 20;

  /// Unlink the log on clean close (scratch/bench semantics). A crash
  /// still leaves the file for recovery.
  bool delete_on_close = false;

};

struct WalStats {
  uint64_t records = 0;
  uint64_t images = 0;
  uint64_t delta_images = 0;  ///< images logged as changed-extent deltas
  uint64_t appended_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoints = 0;
  uint64_t auto_scopes = 0;     ///< one-page scopes made by unbracketed unpins
  uint64_t deferred_frees = 0;
  uint64_t max_group_bytes = 0; ///< largest batch one fsync covered
};

struct WalPendingInsert {
  uint64_t token = 0;
  ObjectId oid = kInvalidObjectId;
  Rect rect;
};

/// What replay reconstructed (see Replay()).
struct WalRecoveryInfo {
  bool has_root = false;
  PageId root = kInvalidPageId;
  Level root_level = 0;
  uint64_t records_applied = 0;
  uint64_t images_applied = 0;
  uint64_t valid_bytes = 0;  ///< log prefix replayed (incl. file header)
  uint64_t torn_bytes = 0;   ///< bytes past the last valid record
  /// Compound updates whose removal was durable but whose re-insert was
  /// not: the caller must logically re-insert each into the recovered
  /// tree (RTree::Insert) to preserve object conservation.
  std::vector<WalPendingInsert> pending_inserts;
};

class WalOpScope;

class WalManager {
 public:
  static StatusOr<std::unique_ptr<WalManager>> Open(
      const WalManagerOptions& options);
  /// Open() for constructors that cannot report errors: CHECK-fails.
  static std::unique_ptr<WalManager> MustOpen(
      const WalManagerOptions& options);

  /// Stops the committer after a final flush; drains deferred frees.
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  size_t page_size() const { return options_.page_size; }
  const std::string& path() const { return options_.path; }

  /// End LSN of everything appended / everything durable on disk.
  uint64_t appended_lsn() const;
  uint64_t durable_lsn() const;

  /// Lock-free lower bound on appended_lsn() — lags the real value by at
  /// most the records currently racing through AppendEncoded. CapturePage
  /// uses it (under a shard latch, where taking the wal mutex is out of
  /// order) to seed a page's recovery floor: the capture's record is
  /// appended later, so its start LSN is >= this bound.
  uint64_t approx_appended_lsn() const {
    return approx_next_lsn_.load(std::memory_order_relaxed);
  }

  /// Blocks until durable_lsn() >= lsn. The waiter flushes inline when
  /// no write is in progress (worker-driven group commit: whichever
  /// thread needs durability first issues the batch), so it never
  /// depends on the committer thread — which may itself be inside a
  /// checkpoint. Returns the sticky I/O error (see status()).
  Status WaitDurable(uint64_t lsn);

  /// The sticky I/O error, OK while the log is healthy. Set by the first
  /// failed log write or fdatasync, checkpoint page sync (sync_pages),
  /// or directory sync after a checkpoint's rename; from then on no
  /// record can become durable, so appends are dropped instead of
  /// buffered and ConcurrentIndex refuses mutations. Lock-free while OK.
  Status status() const;

  /// Fuzzy checkpoint, concurrent with operations:
  ///   1. pick the cut candidate = appended end LSN and the root known
  ///      at that point;
  ///   2. flush (hooks.flush_pages) and sync (hooks.begin_sync +
  ///      hooks.sync_pages) the pool — ops keep appending meanwhile;
  ///   3. pull the cut back to the pool's recovery floor
  ///      (hooks.dirty_rec_floor) so no dirty or unsynced frame loses
  ///      its only logged copy;
  ///   4. write a fresh log file: header, a checkpoint record carrying
  ///      the cut-time root (stamped just below the cut so LSN/offset
  ///      arithmetic stays linear), then every record at or past the cut
  ///      copied byte-for-byte; fsync the bulk without blocking appends,
  ///      and only drain-copy the last group window, fsync, and rename
  ///      under the wal mutex;
  ///   5. release every deferred free (the fresh file made everything
  ///      appended durable).
  /// Skips (returns OK) when the floor pins the cut at the current base.
  /// A failed sync_pages, or a failed directory sync once the rename
  /// took effect, is sticky (see status()): the log is never truncated
  /// again. Any other failure leaves the log as it was and backs off the
  /// auto-trigger, as a skip does.
  /// Safe from any thread, including the committer's auto-checkpoint;
  /// concurrent calls serialize.
  Status Checkpoint();

  /// Observer-driven root tracking: called (via IndexSystem's adapter)
  /// whenever the tree root changes. Inside a scope the note rides the
  /// scope's record; outside one (single-threaded contexts only) a
  /// standalone root record is appended immediately.
  void NoteRootChange(PageId root, Level root_level);

  /// Fresh token for the pending/completed-insert protocol.
  uint64_t NewToken();

  /// Queues `id` to be returned to the page store once `release_lsn` is
  /// durable (BufferPool::DeletePage routes here instead of Free()ing).
  void DeferFree(PageId id, uint64_t release_lsn);

  /// Checkpoint pool hooks (see Checkpoint()). Unset hooks are skipped —
  /// fine for bare-log tests, but a WalManager attached to a BufferPool
  /// must wire all four (BufferPool::FlushAll, WalCheckpointBeginSync,
  /// PageStore::Sync, BufferPool::WalDirtyRecFloor), or a fuzzy
  /// checkpoint may truncate records a skipped dirty frame still needs.
  struct CheckpointHooks {
    std::function<Status()> flush_pages;
    std::function<void()> begin_sync;
    std::function<Status()> sync_pages;
    std::function<uint64_t()> dirty_rec_floor;
  };
  void SetCheckpointHooks(CheckpointHooks hooks);
  /// Deferred-free sink (normally the page store's Free).
  void SetFreeFn(std::function<void(PageId)> free_fn);

  /// Detaches the checkpoint hooks for shutdown: blocks until any
  /// in-flight checkpoint finishes, then makes every later checkpoint
  /// (manual or the committer's auto-trigger) a no-op. The pool outlives
  /// the WalManager's *appends* but not its whole lifetime — owners must
  /// call this before destroying the BufferPool the hooks point into,
  /// or a late auto-checkpoint runs FlushAll/WalDirtyRecFloor against a
  /// dead pool.
  void QuiesceCheckpoints();

  WalStats stats() const;

  /// Scans `path`, applies every valid record's images to `store` in log
  /// order (extending the store as needed), stops cleanly at the first
  /// torn or corrupt record, and returns the root + the dangling
  /// pending-insert set. The store should be freshly opened with
  /// truncate=false on the crashed page file.
  static StatusOr<WalRecoveryInfo> Replay(const std::string& path,
                                          PageStore* store);

 private:
  friend class WalOpScope;

  explicit WalManager(const WalManagerOptions& options, int fd);

  void CommitterLoop();
  /// Claims the pending buffer and writes+fsyncs it. `lk` must hold mu_;
  /// released during the I/O, held again on return.
  Status FlushLocked(std::unique_lock<std::mutex>& lk);
  /// Appends pre-encoded record bytes (copied into the pending buffer,
  /// LSN patched in under mu_); returns the record's end LSN. Callers
  /// keep ownership of `data`, so per-thread encode buffers are reusable.
  /// After a sticky error the bytes are dropped (see status()).
  uint64_t AppendEncoded(const uint8_t* data, size_t len, size_t image_count,
                         size_t delta_count, bool from_auto_scope);
  void DrainFreesLocked(uint64_t durable);
  /// Records the first I/O failure in io_error_ (later ones are
  /// dropped) and publishes it to status(). `mu_` must be held.
  void FailLocked(Status s);
  /// Holds off the auto-checkpoint until the log grows by another
  /// max(checkpoint_log_bytes / 8, 1 MB). `mu_` must be held.
  void BackOffCheckpointsLocked();

  WalManagerOptions options_;
  int fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // wakes the committer
  std::condition_variable durable_cv_;  // wakes WaitDurable / writers
  std::vector<uint8_t> buf_;            // appended, not yet written
  std::vector<uint8_t> flush_buf_;      // batch being written (owned by
                                        // the write_in_progress_ claimant;
                                        // swapped with buf_ to keep both
                                        // buffers' capacity across flushes)
  uint64_t next_lsn_ = 0;               // end of everything appended
  uint64_t durable_lsn_ = 0;            // end of everything fsynced
  uint64_t file_write_off_ = 0;         // file offset buf_ starts at
  uint64_t file_base_lsn_ = 0;          // LSN of file offset header-end
  uint64_t ckpt_retry_off_ = 0;         // back-off after a skipped or
                                        // failed checkpoint
  bool write_in_progress_ = false;      // single writer to fd_ at a time
  bool stop_ = false;
  Status io_error_;  // sticky: first failure, see status()
  std::atomic<bool> failed_{false};  // io_error_ set: status()'s fast path
  std::deque<std::pair<uint64_t, PageId>> deferred_frees_;
  PageId last_root_ = kInvalidPageId;
  Level last_root_level_ = 0;
  bool root_known_ = false;
  WalStats stats_;

  std::atomic<uint64_t> token_counter_{1};
  /// Relaxed mirror of next_lsn_, see approx_appended_lsn().
  std::atomic<uint64_t> approx_next_lsn_{0};

  std::mutex checkpoint_mu_;  // serializes whole checkpoints
  bool quiesced_ = false;     // under checkpoint_mu_: hooks detached,
                              // checkpoints are no-ops from here on

  CheckpointHooks hooks_;
  std::function<void(PageId)> free_fn_;

  std::thread committer_;
};

/// RAII bracket for one logical operation. Create it *before* acquiring
/// the operation's page latches and call Commit() *before* releasing
/// them (the destructor commits too, for single-threaded callers with
/// no latches). A null `wal` makes the scope inert, so call sites need
/// no branching. Scopes never block on a checkpoint: the bracket itself
/// is just thread-local bookkeeping.
///
/// The buffer pool calls CapturePage() on every dirty unpin while a
/// scope is current (thread-local); Commit() appends all captured
/// images as one atomic record, then stamps each captured frame's page
/// LSN and releases its wal-pending mark.
class WalOpScope {
 public:
  explicit WalOpScope(WalManager* wal);
  ~WalOpScope();

  WalOpScope(const WalOpScope&) = delete;
  WalOpScope& operator=(const WalOpScope&) = delete;

  /// The calling thread's current scope (nullptr outside any scope).
  static WalOpScope* Current();

  bool active() const { return wal_ != nullptr; }

  /// Appends the captured batch (if any image was captured) as one
  /// record, stamps the captured frames, queues the deferred frees, and
  /// resets the scope. Call it before releasing the op's page latches;
  /// the destructor commits any residue, so single-threaded callers may
  /// simply let the scope fall out of, well, scope.
  void Commit();

  /// Compound-update protocol (see WalLogicalKind).
  void SetPendingInsert(uint64_t token, ObjectId oid, const Rect& rect);
  void SetCompletedInsert(uint64_t token);

  /// Root note riding this scope's record (via WalManager adapter).
  void NoteRoot(PageId root, Level root_level);

  /// Called by BufferPool (under its shard latch) on a dirty unpin:
  /// snapshots the page bytes — a delta against the frame's shadow of
  /// its last logged image when one exists, the full page otherwise —
  /// and marks the frame wal-pending until Commit() stamps it. A page
  /// re-dirtied within one op appends another (ordered) image.
  void CapturePage(BufferPool* pool, Page* page);

  /// DeletePage inside a scope: the free is released once *this* op's
  /// record is durable.
  void DeferFree(PageId id);

  /// Marks this scope as pool-created for an unbracketed dirty unpin
  /// (stats only).
  void MarkAuto() { auto_ = true; }

 private:
  // The scope's mutable state (pending record fields, captured images,
  // encode buffer) lives in a thread-local scratch in wal_manager.cc —
  // one scope is active per thread at a time (nested scopes go inert),
  // and reusing the scratch's heap across the millions of short op
  // scopes keeps the append path allocation-free in steady state.
  WalManager* wal_;
  BufferPool* pool_ = nullptr;
  bool auto_ = false;
};

}  // namespace burtree
