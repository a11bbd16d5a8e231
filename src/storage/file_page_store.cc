#include "storage/file_page_store.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/logging.h"

namespace burtree {

namespace {

// Cap per preadv/pwritev syscall; POSIX guarantees at least 16, Linux
// allows 1024.
constexpr size_t kMaxIov = 1024;

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

/// Sorts a batch by page id (pointers into the caller's vector).
template <typename Req>
std::vector<const Req*> SortById(const std::vector<Req>& reqs) {
  std::vector<const Req*> order;
  order.reserve(reqs.size());
  for (const auto& r : reqs) order.push_back(&r);
  // Stable: duplicate ids keep their batch order, so "last write wins"
  // matches PageFile's sequential application byte for byte.
  std::stable_sort(order.begin(), order.end(),
                   [](const Req* a, const Req* b) { return a->id < b->id; });
  return order;
}

/// Fuses the sorted batch into contiguous-id runs, each cut at the
/// iovec syscall cap: (start index, length) pairs. Duplicate ids and
/// gaps split runs.
template <typename Req>
std::vector<std::pair<size_t, size_t>> IovRuns(
    const std::vector<const Req*>& order) {
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && order[j]->id == order[j - 1]->id + 1) ++j;
    for (size_t c = i; c < j; c += kMaxIov) {
      runs.emplace_back(c, std::min(kMaxIov, j - c));
    }
    i = j;
  }
  return runs;
}

}  // namespace

StatusOr<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const FilePageStoreOptions& options) {
  if (options.page_size == 0) {
    return Status::InvalidArgument("page_size must be positive");
  }
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  if (options.truncate) flags |= O_TRUNC;
  const int fd = ::open(options.path.c_str(), flags, 0644);
  if (fd < 0) {
    return Errno(("open '" + options.path + "'").c_str());
  }

  size_t existing_pages = 0;
  if (!options.truncate) {
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status s = Errno("fstat");
      ::close(fd);
      return s;
    }
    if (static_cast<size_t>(st.st_size) % options.page_size != 0) {
      ::close(fd);
      // A torn tail (crashed writer, partial pwrite) — an I/O-level
      // defect of the file, not a caller mistake: serving the partial
      // page would hand out garbage.
      return Status::IoError(
          "file size is not a multiple of page_size: '" + options.path + "'");
    }
    existing_pages = static_cast<size_t>(st.st_size) / options.page_size;
  }
  if (options.unlink_after_open) {
    ::unlink(options.path.c_str());  // best effort: scratch semantics
  }
  return std::unique_ptr<FilePageStore>(
      new FilePageStore(options, fd, existing_pages));
}

FilePageStore::FilePageStore(FilePageStoreOptions options, int fd,
                             size_t existing_pages)
    : PageStore(options.page_size),
      options_(std::move(options)),
      fd_(fd),
      engine_(AsyncIoEngine::Create(options_.io_engine,
                                    options_.io_queue_depth)),
      live_(existing_pages, true),
      file_pages_(existing_pages) {}

FilePageStore::~FilePageStore() {
  // Drain the async engine first: its destructor executes every still-
  // queued unit, and those units target fd_.
  engine_.reset();
  if (fd_ >= 0) {
    // Trim the geometric over-allocation so a truncate=false reopen
    // adopts exactly the allocated slots, not the growth slack.
    if (file_pages_ > live_.size()) {
      if (::ftruncate(fd_, static_cast<off_t>(live_.size()) *
                               static_cast<off_t>(page_size())) != 0) {
        // Best effort: a failed trim only inflates a later reopen.
      }
    }
    ::close(fd_);
  }
}

PageId FilePageStore::Allocate() {
  std::unique_lock lock(mu_);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    // Match PageFile: a reused slot reads back zeroed. The zeroing write
    // is allocation bookkeeping, not a counted disk access.
    const std::vector<uint8_t> zeros(page_size(), 0);
    BURTREE_CHECK(
        io::PwriteFully(fd_, zeros.data(), page_size(), OffsetOf(id)).ok());
    live_[id] = true;
    return id;
  }
  PageId id = static_cast<PageId>(live_.size());
  if (static_cast<size_t>(id) >= file_pages_) {
    // Geometric growth: one zero-filling ftruncate per doubling instead
    // of one syscall (under the exclusive lock) per page. The destructor
    // trims back to the allocated extent. Allocation cannot report
    // errors, so an out-of-space device aborts here.
    const size_t want = std::max<size_t>(
        static_cast<size_t>(id) + 1, std::max<size_t>(file_pages_ * 2, 64));
    BURTREE_CHECK(::ftruncate(fd_, static_cast<off_t>(want) *
                                       static_cast<off_t>(page_size())) == 0);
    file_pages_ = want;
  }
  live_.push_back(true);
  return id;
}

Status FilePageStore::Free(PageId id) {
  std::unique_lock lock(mu_);
  if (id >= live_.size() || !live_[id]) {
    return Status::InvalidArgument("Free of non-live page");
  }
  live_[id] = false;
  free_list_.push_back(id);
  return Status::OK();
}

Status FilePageStore::Read(PageId id, uint8_t* out) {
  {
    std::shared_lock lock(mu_);
    if (!IsLiveLocked(id)) {
      return Status::InvalidArgument("Read of non-live page");
    }
    BURTREE_RETURN_IF_ERROR(
        io::PreadFully(fd_, out, page_size(), OffsetOf(id)));
  }
  CountRead();
  return Status::OK();
}

Status FilePageStore::Write(PageId id, const uint8_t* in) {
  {
    std::shared_lock lock(mu_);  // liveness vector is not resized here
    if (!IsLiveLocked(id)) {
      return Status::InvalidArgument("Write of non-live page");
    }
    BURTREE_RETURN_IF_ERROR(
        io::PwriteFully(fd_, in, page_size(), OffsetOf(id)));
  }
  CountWrite();
  return Status::OK();
}

Status FilePageStore::ReadPages(const std::vector<PageReadRequest>& reqs) {
  if (reqs.empty()) return Status::OK();
  {
    std::shared_lock lock(mu_);
    // Validate every id up front so a bad batch fails before any bytes
    // are copied (same atomicity as PageFile).
    for (const auto& r : reqs) {
      if (!IsLiveLocked(r.id)) {
        return Status::InvalidArgument("ReadPages of non-live page");
      }
    }
    // Sort by page id and fuse contiguous runs: one preadv per run
    // instead of one syscall per page — the file-backend analogue of the
    // group read's amortized seek. Duplicate ids simply split runs.
    const auto order = SortById(reqs);
    for (const auto& [start, len] : IovRuns(order)) {
      std::vector<struct iovec> iov(len);
      for (size_t k = 0; k < len; ++k) {
        iov[k] = {order[start + k]->out, page_size()};
      }
      BURTREE_RETURN_IF_ERROR(io::VectoredIo(
          fd_, std::move(iov), OffsetOf(order[start]->id), /*write=*/false));
    }
  }
  CountReads(reqs.size());
  return Status::OK();
}

Status FilePageStore::FlushDirtyBatch(
    const std::vector<PageWriteRequest>& reqs) {
  if (reqs.empty()) return Status::OK();
  {
    std::shared_lock lock(mu_);  // liveness vector is not resized here
    for (const auto& r : reqs) {
      if (!IsLiveLocked(r.id)) {
        return Status::InvalidArgument("FlushDirtyBatch of non-live page");
      }
    }
    const auto order = SortById(reqs);
    for (const auto& [start, len] : IovRuns(order)) {
      std::vector<struct iovec> iov(len);
      for (size_t k = 0; k < len; ++k) {
        iov[k] = {const_cast<uint8_t*>(order[start + k]->data), page_size()};
      }
      BURTREE_RETURN_IF_ERROR(io::VectoredIo(
          fd_, std::move(iov), OffsetOf(order[start]->id), /*write=*/true));
    }
  }
  CountWrites(reqs.size());
  return Status::OK();
}

size_t FilePageStore::live_pages() const {
  std::shared_lock lock(mu_);
  return live_.size() - free_list_.size();
}

size_t FilePageStore::allocated_slots() const {
  std::shared_lock lock(mu_);
  return live_.size();
}

Status FilePageStore::Sync() {
  std::shared_lock lock(mu_);
  if (::fdatasync(fd_) != 0) return Errno("fdatasync");
  return Status::OK();
}

bool FilePageStore::IsLiveLocked(PageId id) const {
  return id < live_.size() && live_[id];
}

IoEngineKind FilePageStore::io_engine_active() const {
  return engine_ != nullptr ? engine_->kind() : IoEngineKind::kSync;
}

void FilePageStore::SubmitReadPages(std::vector<PageReadRequest> reqs,
                                    ReadRunFn on_run) {
  if (engine_ == nullptr) {
    PageStore::SubmitReadPages(std::move(reqs), std::move(on_run));
    return;
  }
  if (reqs.empty()) return;
  // The batch vector must outlive every run's completion: the engine's
  // iovecs point at the callers' out buffers it names.
  auto batch = std::make_shared<std::vector<PageReadRequest>>(std::move(reqs));
  std::vector<const PageReadRequest*> live;
  std::vector<PageId> dead;
  {
    std::shared_lock lock(mu_);
    // Per-id liveness instead of the blocking paths' all-or-nothing:
    // prefetch batches are advisory, so a raced Free fails only its own
    // page. Dead ids complete inline as failed single-page runs.
    for (const auto& r : *batch) {
      if (IsLiveLocked(r.id)) {
        live.push_back(&r);
      } else {
        dead.push_back(r.id);
      }
    }
  }
  for (PageId id : dead) {
    on_run(id, 1, Status::InvalidArgument("SubmitReadPages of non-live page"));
  }
  if (live.empty()) return;
  std::stable_sort(
      live.begin(), live.end(),
      [](const PageReadRequest* a, const PageReadRequest* b) {
        return a->id < b->id;
      });
  // One unit per fused run.
  for (const auto& [start, len] : IovRuns(live)) {
    const PageId first = live[start]->id;
    IoRequest req;
    req.op = IoRequest::Op::kRead;
    req.fd = fd_;
    req.offset = OffsetOf(first);
    req.latency_ns = io_latency_ns();  // once per run, like CountReads
    req.iov.reserve(len);
    for (size_t k = 0; k < len; ++k) {
      req.iov.push_back({live[start + k]->out, page_size()});
    }
    req.done = [this, batch, first, len = len, on_run](Status s) {
      CountReadsCompleted(len);
      on_run(first, len, s);
    };
    engine_->Submit(std::move(req));
  }
}

void FilePageStore::SubmitFlushDirtyBatch(std::vector<PageWriteRequest> reqs,
                                          std::function<void(Status)> done) {
  if (engine_ == nullptr) {
    PageStore::SubmitFlushDirtyBatch(std::move(reqs), std::move(done));
    return;
  }
  if (reqs.empty()) {
    done(Status::OK());
    return;
  }
  auto batch =
      std::make_shared<std::vector<PageWriteRequest>>(std::move(reqs));
  {
    std::shared_lock lock(mu_);
    // Same all-or-nothing validation as the blocking FlushDirtyBatch: a
    // write-back of a dead page is a pool-protocol violation (DeletePage
    // waits out in-flight write-backs), not a prefetch race.
    for (const auto& r : *batch) {
      if (!IsLiveLocked(r.id)) {
        done(Status::InvalidArgument("SubmitFlushDirtyBatch of non-live page"));
        return;
      }
    }
  }
  const auto order = SortById(*batch);
  // One `done` after all runs: count them first, then submit with a
  // shared countdown (first error wins).
  struct Agg {
    std::atomic<size_t> runs_left{0};
    std::mutex mu;
    Status first_error;
    std::function<void(Status)> done;
  };
  auto agg = std::make_shared<Agg>();
  agg->done = std::move(done);
  const auto runs = IovRuns(order);
  agg->runs_left.store(runs.size(), std::memory_order_relaxed);
  for (const auto& [start, len] : runs) {
    IoRequest req;
    req.op = IoRequest::Op::kWrite;
    req.fd = fd_;
    req.offset = OffsetOf(order[start]->id);
    req.latency_ns = io_latency_ns();
    req.iov.reserve(len);
    for (size_t k = 0; k < len; ++k) {
      req.iov.push_back(
          {const_cast<uint8_t*>(order[start + k]->data), page_size()});
    }
    req.done = [this, batch, agg, len = len](Status s) {
      CountWritesCompleted(len);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lk(agg->mu);
        if (agg->first_error.ok()) agg->first_error = s;
      }
      if (agg->runs_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        agg->done(agg->first_error);  // no writers remain
      }
    };
    engine_->Submit(std::move(req));
  }
}

}  // namespace burtree
