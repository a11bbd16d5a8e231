// PageStore: the storage-backend contract under the buffer pool. The
// paper's metric is the *number* of disk accesses, not their latency
// (see docs/STORAGE.md), so every implementation counts each page
// read/write in IoStats; what differs is where the bytes live — RAM
// (PageFile, the default simulated disk) or a real file accessed with
// pread/pwrite (FilePageStore).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/options.h"
#include "common/status.h"
#include "common/types.h"

namespace burtree {

/// One page of a batched write-back.
struct PageWriteRequest {
  PageId id = kInvalidPageId;
  const uint8_t* data = nullptr;
};

/// Abstract page store: fixed-size pages addressed by PageId, with
/// allocate/free bookkeeping, single and batched I/O, and the shared
/// accounting machinery (IoStats, per-thread access counters, optional
/// synthetic latency). The full contract — error semantics, what counts
/// as one I/O, batching guarantees — is written down in docs/STORAGE.md.
///
/// Thread-safety: implementations must be fully thread-safe — the
/// concurrent throughput experiment drives one store from 50 threads,
/// and the buffer pool's latch-free miss/write-back paths issue I/O
/// from many threads with no latch held. The base-class counters are
/// atomic (IoStats) or thread-local (thread_io); the latency knobs are
/// plain fields and must be configured before concurrent use.
class PageStore {
 public:
  explicit PageStore(size_t page_size) : page_size_(page_size) {}
  virtual ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  size_t page_size() const { return page_size_; }

  /// Allocates a fresh zeroed page (reusing freed slots first) and returns
  /// its id. Does not count as an I/O; the subsequent write does.
  virtual PageId Allocate() = 0;

  /// Returns a page to the free list. Reading a freed page is an error.
  virtual Status Free(PageId id) = 0;

  /// Copies the page's current content into `out` (must be page_size
  /// bytes). Counts one disk read.
  virtual Status Read(PageId id, uint8_t* out) = 0;

  /// Overwrites the page content from `in` (page_size bytes). Counts one
  /// disk write.
  virtual Status Write(PageId id, const uint8_t* in) = 0;

  /// Batched write-back of dirty frames (one latency charge per batch;
  /// one pwritev per contiguous run on the file backend; IoStats still
  /// counts one write per page — the paper's metric is access count).
  /// Fails before writing anything if any id is not live.
  virtual Status FlushDirtyBatch(const std::vector<PageWriteRequest>& reqs) = 0;

  /// Number of pages ever allocated and still live (excludes freed).
  virtual size_t live_pages() const = 0;

  /// Total slots including freed ones (the "file size" in pages).
  virtual size_t allocated_slots() const = 0;

  /// Forces everything previously written down to the device. A no-op
  /// for memory-backed stores; the file backend issues fdatasync. Used
  /// by WAL checkpoints as the page-side durability point.
  virtual Status Sync() { return Status::OK(); }

  IoStats& io_stats() { return stats_; }
  const IoStats& io_stats() const { return stats_; }

  /// Disk accesses performed by the *calling thread* across all page
  /// stores since the last ResetThreadIo(). The concurrent throughput
  /// driver uses this to charge simulated latency outside of latches.
  static uint64_t thread_io();
  static void ResetThreadIo();
  /// Adds synthetic accesses to the calling thread's counter (used by
  /// cost-model charges that bypass the physical page path).
  static void AddThreadIo(uint64_t n);

  /// Optional synthetic latency charged per read/write, in nanoseconds:
  /// the calling thread sleeps it out, so other threads run meanwhile —
  /// the buffer pool's miss and write-back paths do their I/O with no
  /// latch held, and a sleeping access stalls only its waiters. Used by
  /// the concurrent scenarios to make tps I/O-bound like the paper's
  /// disk-resident setting. 0 disables it. The file backend honors it
  /// too (added on top of the real device time), which keeps
  /// latency-sensitive tests backend-agnostic.
  void set_io_latency_ns(uint64_t ns) { io_latency_ns_ = ns; }
  uint64_t io_latency_ns() const { return io_latency_ns_; }

 protected:
  /// Accounting helpers for implementations: bump IoStats and the
  /// calling thread's counter, then charge the synthetic latency (once,
  /// also for a batched write-back — the group amortizes the seek).
  void CountRead();
  void CountWrite();
  void CountWrites(uint64_t n);
  void ChargeLatency() const;

 private:
  const size_t page_size_;
  IoStats stats_;
  uint64_t io_latency_ns_ = 0;
};

/// "mem" / "file" for table headers and --help text.
const char* StorageBackendName(StorageBackend backend);

/// Parses a --backend flag value: "mem", "file", or "file:<dir>" (the
/// directory backing files are created in; empty = system temp dir).
/// Only backend and file_dir are written; other fields are preserved.
bool ParseStorageBackend(const std::string& s, StorageOptions* opts);

/// Builds the configured backend: the in-memory PageFile for kMem, or a
/// FilePageStore over a fresh unlinked scratch file in opts.file_dir
/// (created if missing; system temp dir when empty) for kFile. Fails
/// only for the file backend (directory or open errors).
StatusOr<std::unique_ptr<PageStore>> MakePageStore(const StorageOptions& opts,
                                                   size_t page_size);

/// MakePageStore for constructors that cannot report errors: CHECK-fails
/// with the status message instead of returning it.
std::unique_ptr<PageStore> MustMakePageStore(const StorageOptions& opts,
                                             size_t page_size);

}  // namespace burtree
