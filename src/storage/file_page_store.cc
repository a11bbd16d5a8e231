#include "storage/file_page_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/logging.h"
#include "storage/file_io.h"

namespace burtree {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
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
      live_(existing_pages, true),
      file_pages_(existing_pages) {}

FilePageStore::~FilePageStore() {
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
    // Sort by page id (stable: duplicate ids keep their batch order, so
    // "last write wins" matches PageFile's sequential application byte
    // for byte) and fuse contiguous runs: one pwritev per run instead of
    // one syscall per page — the file-backend analogue of the group
    // write's amortized seek. Duplicate ids and gaps split runs.
    std::vector<const PageWriteRequest*> order;
    order.reserve(reqs.size());
    for (const auto& r : reqs) order.push_back(&r);
    std::stable_sort(order.begin(), order.end(),
                     [](const PageWriteRequest* a, const PageWriteRequest* b) {
                       return a->id < b->id;
                     });
    for (size_t i = 0; i < order.size();) {
      std::vector<struct iovec> iov{
          {const_cast<uint8_t*>(order[i]->data), page_size()}};
      size_t j = i + 1;
      for (; j < order.size() && order[j]->id == order[j - 1]->id + 1; ++j) {
        iov.push_back({const_cast<uint8_t*>(order[j]->data), page_size()});
      }
      BURTREE_RETURN_IF_ERROR(
          io::PwritevFully(fd_, std::move(iov), OffsetOf(order[i]->id)));
      i = j;
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

}  // namespace burtree
