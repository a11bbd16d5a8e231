// FilePageStore: the real-file PageStore — POSIX pread/pwrite against a
// backing file, with pwritev batching for the group write-back path.
// Lets the same buffer pool and benches run against a real device (or
// tmpfs) instead of the simulated in-memory disk; pages become durable
// only at Sync(), which the WAL checkpoint calls.
// Contract and backend-choice guidance in docs/STORAGE.md.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/page_store.h"

namespace burtree {

struct FilePageStoreOptions {
  /// Backing file path; created if absent.
  std::string path;

  size_t page_size = 1024;

  /// true: start from an empty file (O_TRUNC). false: adopt an existing
  /// file — every `size / page_size` slot becomes a live page (the store
  /// keeps no persistent allocation metadata; see docs/STORAGE.md).
  bool truncate = true;

  /// Unlink the path right after opening: the file becomes anonymous
  /// scratch space the kernel reclaims when the store closes (used by
  /// MakePageStore so bench runs leave nothing behind).
  bool unlink_after_open = false;
};

/// Real-file page store. Pages live at byte offset `id * page_size`.
/// Allocation bookkeeping (liveness, free list) is in memory only, as in
/// PageFile: a freshly opened store with truncate=false treats every
/// slot of the file as live.
///
/// Thread-safety: fully thread-safe. A shared_mutex guards the liveness
/// vector and free list (Allocate/Free exclusive; Read/Write shared),
/// and the data path uses positioned I/O (pread/pwrite), which is safe
/// from any number of threads on one file descriptor. I/O on distinct
/// pages proceeds concurrently; IoStats counters are atomic.
class FilePageStore final : public PageStore {
 public:
  /// Opens (creating if needed) the backing file. Fails with IoError on
  /// open/stat problems and when an adopted file's size is not a
  /// multiple of page_size (a torn tail from a crashed writer — the
  /// caller must not be served a partial page).
  static StatusOr<std::unique_ptr<FilePageStore>> Open(
      const FilePageStoreOptions& options);

  ~FilePageStore() override;

  PageId Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, uint8_t* out) override;
  Status Write(PageId id, const uint8_t* in) override;
  Status FlushDirtyBatch(const std::vector<PageWriteRequest>& reqs) override;
  size_t live_pages() const override;
  size_t allocated_slots() const override;

  /// Forces everything written so far down to the device (fdatasync).
  Status Sync() override;

  const std::string& path() const { return options_.path; }

 private:
  FilePageStore(FilePageStoreOptions options, int fd,
                size_t existing_pages);

  bool IsLiveLocked(PageId id) const;
  off_t OffsetOf(PageId id) const {
    return static_cast<off_t>(id) * static_cast<off_t>(page_size());
  }
  // Data transfers go through the hookable resume loops in
  // storage/file_io.h (io::PreadFully & co.), shared with the WAL.

  FilePageStoreOptions options_;
  int fd_ = -1;
  mutable std::shared_mutex mu_;
  std::vector<bool> live_;
  std::vector<PageId> free_list_;
  /// Slots the file currently extends to (≥ live_.size(): Allocate
  /// grows the file geometrically; the destructor trims the slack).
  size_t file_pages_ = 0;
};

}  // namespace burtree
