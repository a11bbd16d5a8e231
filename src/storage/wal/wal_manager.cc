#include "storage/wal/wal_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "buffer/buffer_pool.h"
#include "common/logging.h"
#include "storage/file_io.h"
#include "storage/page_store.h"

namespace burtree {

namespace {

thread_local WalOpScope* t_current_scope = nullptr;

/// Per-thread scope state, reused across the millions of short op scopes
/// so the append path makes no heap allocations in steady state. Safe as
/// a thread_local because at most one scope per thread is active (nested
/// scopes go inert) and Commit() fully resets it.
struct ScopeScratch {
  /// Stamp target: the captured frame's Page. The pointer stays valid
  /// until Commit() because wal_pending > 0 blocks eviction; DeletePage
  /// within the op routes through WalOpScope::DeferFree, which nulls it.
  struct Captured {
    PageId id;
    Page* page;
  };

  WalRecord rec;                     ///< header/logical fields only;
                                     ///< rec.images stays empty
  std::vector<WalPageImage> images;  ///< [0, images_used) are this op's
                                     ///< captures; extra elements keep
                                     ///< their heap for reuse
  size_t images_used = 0;
  std::vector<Captured> captured;    ///< unique pages (stamp targets)
  std::vector<PageId> frees;
  std::vector<uint8_t> encode;       ///< reusable record encode buffer

  void Reset() {
    rec.type = WalRecordType::kOp;
    rec.has_root = false;
    rec.root = kInvalidPageId;
    rec.root_level = 0;
    rec.logical = WalLogicalKind::kNone;
    rec.token = 0;
    rec.oid = kInvalidObjectId;
    rec.rect = Rect();
    rec.pending.clear();
    images_used = 0;  // elements beyond keep their capacity
    captured.clear();
    frees.clear();
  }
};

thread_local ScopeScratch t_scratch;

Status Errno(const char* what, const std::string& path) {
  return Status::IoError(std::string(what) + " " + path + ": " +
                         std::strerror(errno));
}

/// Names the log file in a failed transfer's error.
Status WithPath(const Status& s, const std::string& path) {
  return s.ok() ? s : Status::IoError(s.message() + " (" + path + ")");
}

/// The shared pwrite resume loop (io::PwriteFully), naming the log file.
Status PwriteAll(int fd, const uint8_t* buf, size_t len, off_t off,
                 const std::string& path) {
  return WithPath(io::PwriteFully(fd, buf, len, off), path);
}

/// pread->pwrite copy of a raw byte range between two fds, in chunks.
Status CopyRawRange(int from_fd, uint64_t from_off, int to_fd,
                    uint64_t to_off, uint64_t len, const std::string& path) {
  std::vector<uint8_t> chunk(std::min<uint64_t>(len, 1 << 20));
  while (len > 0) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(len, chunk.size()));
    BURTREE_RETURN_IF_ERROR(WithPath(
        io::PreadFully(from_fd, chunk.data(), n, static_cast<off_t>(from_off)),
        path));
    BURTREE_RETURN_IF_ERROR(PwriteAll(to_fd, chunk.data(), n,
                                      static_cast<off_t>(to_off), path));
    from_off += n;
    to_off += n;
    len -= n;
  }
  return Status::OK();
}

Status FsyncDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return Errno("open dir", dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// WalManager
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<WalManager>> WalManager::Open(
    const WalManagerOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("WAL path must not be empty");
  }
  if (options.page_size == 0) {
    return Status::InvalidArgument("WAL page_size must be positive");
  }
  const int fd =
      ::open(options.path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", options.path);

  uint8_t header[kWalFileHeaderSize];
  EncodeWalFileHeader(options.page_size, /*base_lsn=*/0, header);
  Status s = PwriteAll(fd, header, sizeof(header), 0, options.path);
  if (s.ok() && ::fdatasync(fd) != 0) s = Errno("fdatasync", options.path);
  if (s.ok()) s = FsyncDirOf(options.path);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  return std::unique_ptr<WalManager>(new WalManager(options, fd));
}

std::unique_ptr<WalManager> WalManager::MustOpen(
    const WalManagerOptions& options) {
  auto wal_or = Open(options);
  if (!wal_or.ok()) {
    std::fprintf(stderr, "WalManager::Open(%s) failed: %s\n",
                 options.path.c_str(), wal_or.status().ToString().c_str());
  }
  BURTREE_CHECK(wal_or.ok());
  return std::move(wal_or).value();
}

WalManager::WalManager(const WalManagerOptions& options, int fd)
    : options_(options),
      fd_(fd),
      file_write_off_(kWalFileHeaderSize) {
  committer_ = std::thread([this] { CommitterLoop(); });
}

WalManager::~WalManager() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Final flush so a clean shutdown leaves a complete log, then stop.
    while (!buf_.empty() && io_error_.ok()) {
      FlushLocked(lk).ok();  // sticky error is inspected below
    }
    DrainFreesLocked(/*durable=*/next_lsn_);  // clean close: release all
    stop_ = true;
  }
  work_cv_.notify_all();
  durable_cv_.notify_all();
  committer_.join();
  if (fd_ >= 0) ::close(fd_);
  if (options_.delete_on_close) ::unlink(options_.path.c_str());
}

uint64_t WalManager::appended_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_lsn_;
}

uint64_t WalManager::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_lsn_;
}

uint64_t WalManager::NewToken() {
  return token_counter_.fetch_add(1, std::memory_order_relaxed);
}

void WalManager::SetCheckpointHooks(CheckpointHooks hooks) {
  hooks_ = std::move(hooks);
}

void WalManager::QuiesceCheckpoints() {
  // Taking checkpoint_mu_ waits out an in-flight checkpoint; the flag
  // turns every later one into a no-op before it touches the hooks.
  std::lock_guard<std::mutex> cp(checkpoint_mu_);
  quiesced_ = true;
  hooks_ = CheckpointHooks{};
}

void WalManager::SetFreeFn(std::function<void(PageId)> free_fn) {
  free_fn_ = std::move(free_fn);
}

WalStats WalManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

Status WalManager::status() const {
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lk(mu_);
  return io_error_;
}

void WalManager::FailLocked(Status s) {
  if (!io_error_.ok()) return;
  io_error_ = std::move(s);
  failed_.store(true, std::memory_order_release);
}

uint64_t WalManager::AppendEncoded(const uint8_t* data, size_t len,
                                   size_t image_count, size_t delta_count,
                                   bool from_auto_scope) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!io_error_.ok()) {
    // Nothing can become durable any more (FlushLocked returns the
    // error and never drains buf_): buffer nothing, but still advance
    // the LSN so the caller's frames stamp past durable_lsn_ and
    // eviction keeps holding them back.
    next_lsn_ += len;
    approx_next_lsn_.store(next_lsn_, std::memory_order_relaxed);
    return next_lsn_;
  }
  const size_t pos = buf_.size();
  buf_.insert(buf_.end(), data, data + len);
  PatchWalRecordLsn(buf_.data() + pos, next_lsn_);
  next_lsn_ += len;
  approx_next_lsn_.store(next_lsn_, std::memory_order_relaxed);
  stats_.records++;
  stats_.images += image_count;
  stats_.delta_images += delta_count;
  stats_.appended_bytes += len;
  if (from_auto_scope) stats_.auto_scopes++;
  // Deliberately no work_cv_ notify: the committer wakes on its own
  // group-commit timer (waking it per append would both cost a futex
  // syscall on every operation and shrink the fsync batches to nothing).
  // Only WaitDurable cuts the window short.
  return next_lsn_;
}

Status WalManager::FlushLocked(std::unique_lock<std::mutex>& lk) {
  // Single writer at a time: claims are serialized, so each claimant's
  // end LSN exceeds the previous one's and durable_lsn_ never regresses.
  while (write_in_progress_) durable_cv_.wait(lk);
  if (!io_error_.ok()) return io_error_;
  if (buf_.empty()) return Status::OK();

  // Swap (not move) so both buffers keep their grown capacity across
  // flushes; flush_buf_ is owned by this claimant until the write ends.
  flush_buf_.clear();
  std::swap(buf_, flush_buf_);
  const uint64_t end_lsn = next_lsn_;
  const uint64_t off = file_write_off_;
  file_write_off_ += flush_buf_.size();
  write_in_progress_ = true;

  const int fd = fd_;
  const std::string path = options_.path;
  lk.unlock();

  Status s = PwriteAll(fd, flush_buf_.data(), flush_buf_.size(),
                       static_cast<off_t>(off), path);
  if (s.ok() && ::fdatasync(fd) != 0) s = Errno("fdatasync", path);

  lk.lock();
  write_in_progress_ = false;
  if (s.ok()) {
    durable_lsn_ = std::max(durable_lsn_, end_lsn);
    stats_.fsyncs++;
    stats_.max_group_bytes = std::max<uint64_t>(stats_.max_group_bytes,
                                                flush_buf_.size());
    DrainFreesLocked(durable_lsn_);
  } else {
    FailLocked(s);
  }
  durable_cv_.notify_all();
  return s;
}

void WalManager::DrainFreesLocked(uint64_t durable) {
  // free_fn_ (the page store's Free) takes only the store's own mutex —
  // a leaf in the lock order — so invoking it under mu_ is safe.
  while (!deferred_frees_.empty() && deferred_frees_.front().first <= durable) {
    const PageId id = deferred_frees_.front().second;
    deferred_frees_.pop_front();
    if (free_fn_) free_fn_(id);
  }
}

Status WalManager::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  // Whoever needs durability first issues the batch ("worker-driven"
  // group commit): this never depends on the committer thread, which may
  // itself be blocked inside a checkpoint's FlushAll -> WaitDurable.
  while (durable_lsn_ < lsn && io_error_.ok() && !stop_) {
    if (write_in_progress_) {
      durable_cv_.wait(lk);
      continue;
    }
    if (buf_.empty()) break;  // durable_lsn_ == next_lsn_ >= lsn
    FlushLocked(lk).ok();     // error is sticky in io_error_
  }
  if (!io_error_.ok()) return io_error_;
  if (durable_lsn_ < lsn) {
    return Status::Aborted("WAL shut down before LSN became durable");
  }
  return Status::OK();
}

void WalManager::CommitterLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    work_cv_.wait_for(lk, std::chrono::microseconds(options_.group_commit_us),
                      [&] { return stop_; });
    if (stop_ && buf_.empty()) return;
    if (!buf_.empty()) {
      FlushLocked(lk).ok();  // error is sticky in io_error_
    }
    if (stop_) return;
    if (options_.checkpoint_log_bytes > 0 && io_error_.ok() &&
        file_write_off_ > options_.checkpoint_log_bytes &&
        file_write_off_ > ckpt_retry_off_) {
      lk.unlock();
      // Best effort: a sticky failure (see status()) ends these
      // retries, any other failure backs off.
      Checkpoint().ok();
      lk.lock();
    }
  }
}

Status WalManager::Checkpoint() {
  std::lock_guard<std::mutex> cp(checkpoint_mu_);
  if (quiesced_) return Status::OK();
  // A failed checkpoint leaves the log as it was; back off so the
  // auto-trigger does not re-run a whole FlushAll every commit window.
  auto back_off = [this](Status s) {
    std::lock_guard<std::mutex> lk(mu_);
    BackOffCheckpointsLocked();
    return s;
  };

  // 1. Cut candidate and the root known strictly before it. Records
  //    below the final cut are dropped; records at/past it are carried
  //    into the fresh file, so the checkpoint record must describe the
  //    pre-cut state — a newer root would be replayed *before* carried
  //    root changes and leave recovery with a stale root.
  WalRecord ckpt;
  ckpt.type = WalRecordType::kCheckpoint;
  uint64_t cut;
  {
    std::lock_guard<std::mutex> lk(mu_);
    BURTREE_RETURN_IF_ERROR(io_error_);
    cut = next_lsn_;
    ckpt.has_root = root_known_;
    ckpt.root = last_root_;
    ckpt.root_level = last_root_level_;
  }

  // 2. Flush and sync the pool, concurrently with new operations.
  //    FlushAll makes the log durable first (log-before-flush) and skips
  //    frames inside open scopes or past the durable horizon.
  if (hooks_.flush_pages) {
    Status s = hooks_.flush_pages();
    if (!s.ok()) return back_off(s);
  }
  if (hooks_.begin_sync) hooks_.begin_sync();
  if (hooks_.sync_pages) {
    Status s = hooks_.sync_pages();
    if (!s.ok()) {
      // The flush marked its frames clean and begin_sync reset the
      // unsynced-write floor, so no later checkpoint would know these
      // pages still need the log — and a retried fdatasync can return 0
      // after the kernel dropped the failed pages (Linux reports a
      // write-back error once). Never truncate again: sticky, like a
      // log write failure (see status()).
      std::lock_guard<std::mutex> lk(mu_);
      FailLocked(s);
      durable_cv_.notify_all();
      return s;
    }
  }

  // 3. Frames the flush skipped — or frames evicted into store writes
  //    the sync above did not cover — still need their oldest records:
  //    pull the cut back to the pool's recovery floor (ARIES recLSN).
  if (hooks_.dirty_rec_floor) {
    cut = std::min(cut, hooks_.dirty_rec_floor());
  }

  // The checkpoint record is stamped just below the cut so that replay's
  // LSN/offset linearity check holds across the carried suffix: a record
  // with LSN L sits at offset header + (L - base) in both files.
  const uint64_t ckpt_sz = WalRecordEncodedSize(ckpt, options_.page_size);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cut < ckpt_sz || cut - ckpt_sz <= file_base_lsn_) {
      // The floor pinned the cut at (or before) the current base —
      // nothing can be truncated yet. Back off so the auto-checkpoint
      // does not re-run FlushAll every commit window.
      BackOffCheckpointsLocked();
      return Status::OK();
    }
  }
  const uint64_t base = cut - ckpt_sz;

  const std::string tmp = options_.path + ".ckpt";
  const int nfd = ::open(tmp.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (nfd < 0) return back_off(Errno("open", tmp));
  std::vector<uint8_t> head(kWalFileHeaderSize);
  EncodeWalFileHeader(options_.page_size, base, head.data());
  EncodeWalRecord(ckpt, options_.page_size, /*lsn=*/base, &head);
  BURTREE_CHECK(head.size() == kWalFileHeaderSize + ckpt_sz);
  Status s = PwriteAll(nfd, head.data(), head.size(), 0, tmp);

  // 4a. Bulk-copy the carried records [cut, stable) without holding mu_:
  //     flushed log bytes are immutable, and fd_/file_base_lsn_ only
  //     change under checkpoint_mu_ (held). The fsync covers the bulk so
  //     the locked pass below only syncs one commit window's worth.
  uint64_t stable_off;
  {
    std::unique_lock<std::mutex> lk(mu_);
    while (write_in_progress_) durable_cv_.wait(lk);
    stable_off = file_write_off_;
  }
  const uint64_t cut_off = kWalFileHeaderSize + (cut - file_base_lsn_);
  BURTREE_CHECK(cut_off <= stable_off);
  if (s.ok() && stable_off > cut_off) {
    s = CopyRawRange(fd_, cut_off, nfd, head.size(), stable_off - cut_off,
                     tmp);
  }
  if (s.ok() && ::fsync(nfd) != 0) s = Errno("fsync", tmp);

  // 4b. Under mu_ (appends stall for these few milliseconds): drain the
  //     pending buffer into the old file (no fsync — the fresh file is
  //     the one that must be durable), copy the remaining tail, sync,
  //     and atomically swap the fresh file in.
  if (s.ok()) {
    std::unique_lock<std::mutex> lk(mu_);
    while (write_in_progress_) durable_cv_.wait(lk);
    if (!io_error_.ok()) s = io_error_;
    if (s.ok() && !buf_.empty()) {
      s = PwriteAll(fd_, buf_.data(), buf_.size(),
                    static_cast<off_t>(file_write_off_), options_.path);
      if (s.ok()) {
        file_write_off_ += buf_.size();
        buf_.clear();
      }
    }
    if (s.ok() && file_write_off_ > stable_off) {
      s = CopyRawRange(fd_, stable_off, nfd,
                       head.size() + (stable_off - cut_off),
                       file_write_off_ - stable_off, tmp);
    }
    if (s.ok() && ::fdatasync(nfd) != 0) s = Errno("fdatasync", tmp);
    if (s.ok() && ::rename(tmp.c_str(), options_.path.c_str()) != 0) {
      s = Errno("rename", tmp);
    }
    if (s.ok()) {
      // The rename took effect: the log's path names the fresh file, so
      // every later append goes there, whatever the directory sync says.
      const int old_fd = fd_;
      fd_ = nfd;  // same inode rename() just moved to options_.path
      file_base_lsn_ = base;
      file_write_off_ = kWalFileHeaderSize + (next_lsn_ - base);
      ckpt_retry_off_ = 0;
      const Status dir = FsyncDirOf(options_.path);
      ::close(old_fd);
      if (!dir.ok()) {
        // A crash may still bring the old name back, and the old file
        // lacks every record appended from here on: durability is over
        // (sticky, like a failed page sync — no back-off, no retry).
        FailLocked(dir);
        durable_cv_.notify_all();
        return dir;
      }
      durable_lsn_ = next_lsn_;  // the fresh file holds everything
      // 5. Everything appended is durable: release all deferred frees.
      DrainFreesLocked(/*durable=*/next_lsn_);
      stats_.checkpoints++;
    }
  }
  if (!s.ok()) {
    ::close(nfd);
    ::unlink(tmp.c_str());
    return back_off(s);
  }
  durable_cv_.notify_all();
  return Status::OK();
}

void WalManager::BackOffCheckpointsLocked() {
  ckpt_retry_off_ =
      file_write_off_ +
      std::max<uint64_t>(options_.checkpoint_log_bytes / 8, 1 << 20);
}

void WalManager::NoteRootChange(PageId root, Level root_level) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_root_ = root;
    last_root_level_ = root_level;
    root_known_ = true;
  }
  WalOpScope* scope = WalOpScope::Current();
  if (scope != nullptr && scope->active()) {
    scope->NoteRoot(root, root_level);
    return;
  }
  // Outside any scope (single-threaded construction paths): append a
  // standalone root record.
  WalRecord rec;
  rec.has_root = true;
  rec.root = root;
  rec.root_level = root_level;
  std::vector<uint8_t> bytes;
  EncodeWalRecord(rec, options_.page_size, /*lsn=*/0, &bytes);
  AppendEncoded(bytes.data(), bytes.size(), /*image_count=*/0,
                /*delta_count=*/0, /*from_auto_scope=*/false);
}

void WalManager::DeferFree(PageId id, uint64_t release_lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  // Appends are monotone, so the deque stays sorted by release LSN.
  deferred_frees_.emplace_back(release_lsn, id);
  stats_.deferred_frees++;
}

StatusOr<WalRecoveryInfo> WalManager::Replay(const std::string& path,
                                             PageStore* store) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open", path);
  std::vector<uint8_t> data;
  {
    uint8_t chunk[1 << 16];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status s = Errno("read", path);
        ::close(fd);
        return s;
      }
      if (n == 0) break;
      data.insert(data.end(), chunk, chunk + n);
    }
  }
  ::close(fd);

  size_t page_size = 0;
  uint64_t base_lsn = 0;
  BURTREE_RETURN_IF_ERROR(
      DecodeWalFileHeader(data.data(), data.size(), &page_size, &base_lsn));
  if (page_size != store->page_size()) {
    return Status::InvalidArgument("WAL page_size does not match the store");
  }

  WalRecoveryInfo info;
  std::unordered_map<uint64_t, WalPendingInsert> pending;
  size_t off = kWalFileHeaderSize;
  while (off < data.size()) {
    WalRecord rec;
    size_t consumed = 0;
    const WalDecodeResult r = DecodeWalRecord(
        data.data() + off, data.size() - off, page_size,
        base_lsn + (off - kWalFileHeaderSize), &rec, &consumed);
    if (r != WalDecodeResult::kOk) break;  // torn/garbage tail: stop here
    for (const WalPageImage& img : rec.images) {
      // Extend the store to cover images past the crashed file's end.
      // The store was adopted with truncate=false, so its free list is
      // empty and each Allocate() appends exactly one slot. Materialize
      // each fresh slot with zeros so a delta's read-modify-write below
      // has defined bytes to apply onto (a fresh page's first logged
      // image is full, but later deltas may land after its slot was
      // extended by an earlier record in this same pass).
      std::vector<uint8_t> buf(page_size, 0);
      while (static_cast<size_t>(img.id) >= store->allocated_slots()) {
        const PageId fresh = store->Allocate();
        BURTREE_RETURN_IF_ERROR(store->Write(fresh, buf.data()));
      }
      if (!img.delta) {
        BURTREE_RETURN_IF_ERROR(store->Write(img.id, img.bytes.data()));
      } else {
        BURTREE_RETURN_IF_ERROR(store->Read(img.id, buf.data()));
        const uint8_t* src = img.bytes.data();
        for (const WalExtent& e : img.extents) {
          std::memcpy(buf.data() + e.offset, src, e.length);
          src += e.length;
        }
        BURTREE_RETURN_IF_ERROR(store->Write(img.id, buf.data()));
      }
      info.images_applied++;
    }
    if (rec.has_root) {
      info.has_root = true;
      info.root = rec.root;
      info.root_level = rec.root_level;
    }
    if (rec.logical == WalLogicalKind::kPendingInsert) {
      pending[rec.token] = WalPendingInsert{rec.token, rec.oid, rec.rect};
    } else if (rec.logical == WalLogicalKind::kCompletedInsert) {
      pending.erase(rec.token);
    }
    for (const WalPendingNote& note : rec.pending) {
      pending[note.token] = WalPendingInsert{note.token, note.oid, note.rect};
    }
    info.records_applied++;
    off += consumed;
  }
  info.valid_bytes = off;
  info.torn_bytes = data.size() - off;
  info.pending_inserts.reserve(pending.size());
  for (auto& [token, pi] : pending) info.pending_inserts.push_back(pi);
  return info;
}

// ---------------------------------------------------------------------------
// WalOpScope
// ---------------------------------------------------------------------------

WalOpScope::WalOpScope(WalManager* wal) : wal_(wal) {
  // A scope inside another scope goes inert: the outer one owns this
  // thread's captures.
  if (wal_ != nullptr && t_current_scope != nullptr) wal_ = nullptr;
  if (wal_ == nullptr) return;
  t_current_scope = this;
}

WalOpScope::~WalOpScope() {
  if (wal_ == nullptr) return;
  Commit();
  t_current_scope = nullptr;
}

WalOpScope* WalOpScope::Current() { return t_current_scope; }

void WalOpScope::NoteRoot(PageId root, Level root_level) {
  if (wal_ == nullptr) return;
  t_scratch.rec.has_root = true;
  t_scratch.rec.root = root;
  t_scratch.rec.root_level = root_level;
}

void WalOpScope::SetPendingInsert(uint64_t token, ObjectId oid,
                                  const Rect& rect) {
  if (wal_ == nullptr) return;
  t_scratch.rec.logical = WalLogicalKind::kPendingInsert;
  t_scratch.rec.token = token;
  t_scratch.rec.oid = oid;
  t_scratch.rec.rect = rect;
}

void WalOpScope::SetCompletedInsert(uint64_t token) {
  if (wal_ == nullptr) return;
  t_scratch.rec.logical = WalLogicalKind::kCompletedInsert;
  t_scratch.rec.token = token;
}

void WalOpScope::CapturePage(BufferPool* pool, Page* page) {
  if (wal_ == nullptr) return;
  const PageId id = page->page_id();
  const uint8_t* data = page->data();
  const size_t size = page->size();
  BURTREE_DCHECK(size == wal_->page_size());
  BURTREE_DCHECK(pool_ == nullptr || pool_ == pool);
  pool_ = pool;
  ScopeScratch& sc = t_scratch;

  // Reuse a retired image slot (its vectors keep their heap) or grow.
  if (sc.images_used == sc.images.size()) sc.images.emplace_back();
  WalPageImage& img = sc.images[sc.images_used];
  sc.images_used++;

  if (page->wal_shadow() != nullptr) {
    // Delta against the last logged image. Updating the shadow here (not
    // at Commit) is what keeps it equal to the last *logged* state: per
    // page, capture order equals record order — the capturing op holds
    // the page latch until its Commit() has appended. A page re-dirtied
    // within one op simply appends another image whose delta base is the
    // previous capture; replay applies them in order.
    DiffWalPageImage(page->wal_shadow(), data, size, id, &img);
    if (img.delta) {
      // Fold only the changed extents into the shadow — the rest of it
      // already equals `data`.
      for (const WalExtent& e : img.extents) {
        std::memcpy(page->wal_shadow() + e.offset, data + e.offset,
                    e.length);
      }
    } else {
      std::memcpy(page->wal_shadow(), data, size);
    }
  } else {
    // No shadow: first image of a freshly allocated page (or a frame
    // loaded before set_wal). Full image — replay must wipe whatever a
    // previous incarnation of this slot left behind.
    img.id = id;
    img.delta = false;
    img.extents.clear();
    img.bytes.assign(data, data + size);
    page->CreateWalShadow(data);
  }

  // wal-pending is per page, not per image: only the first capture of a
  // page marks the frame (and only one stamp clears it).
  bool seen = false;
  for (const ScopeScratch::Captured& c : sc.captured) {
    if (c.id == id) {
      seen = true;
      break;
    }
  }
  if (!seen) {
    sc.captured.push_back(ScopeScratch::Captured{id, page});
    page->add_wal_pending(1);  // cleared by Commit()'s StampWalLsn
  }
  // Recovery floor for the fuzzy checkpoint: this op's record starts no
  // earlier than the log end observed *before* the capture, so that LSN
  // is a safe lower bound for the dirty epoch this capture opens. max(1)
  // keeps the empty-log case off the "clean" sentinel 0.
  if (page->wal_rec_lsn() == 0) {
    page->set_wal_rec_lsn(
        std::max<uint64_t>(1, wal_->approx_appended_lsn()));
  }
}

void WalOpScope::DeferFree(PageId id) {
  BURTREE_DCHECK(wal_ != nullptr);
  // The frame is being destroyed now: drop the cached stamp pointer so
  // Commit() does not touch freed memory. The LSN/pending bookkeeping
  // dies with the frame.
  for (ScopeScratch::Captured& c : t_scratch.captured) {
    if (c.id == id) c.page = nullptr;
  }
  t_scratch.frees.push_back(id);
}

void WalOpScope::Commit() {
  if (wal_ == nullptr) return;
  ScopeScratch& sc = t_scratch;
  uint64_t end_lsn = 0;
  if (sc.images_used > 0) {
    // Encode outside the log mutex into the reused per-thread buffer;
    // the LSN is patched in under it.
    sc.encode.clear();
    EncodeWalRecord(sc.rec, sc.images.data(), sc.images_used,
                    wal_->page_size(), /*lsn=*/0, &sc.encode);
    size_t deltas = 0;
    for (size_t i = 0; i < sc.images_used; ++i) {
      deltas += sc.images[i].delta;
    }
    end_lsn = wal_->AppendEncoded(sc.encode.data(), sc.encode.size(),
                                  sc.images_used, deltas, auto_);
    for (const ScopeScratch::Captured& c : sc.captured) {
      if (c.page != nullptr) pool_->StampWalLsn(c.page, end_lsn);
    }
  }
  // A scope that captured nothing logs nothing: root/logical notes only
  // matter when the operation actually changed pages (an aborted or
  // retried op must not log a completion).
  if (!sc.frees.empty()) {
    if (end_lsn == 0) end_lsn = wal_->appended_lsn();
    for (const PageId id : sc.frees) wal_->DeferFree(id, end_lsn);
  }
  sc.Reset();
}

}  // namespace burtree
