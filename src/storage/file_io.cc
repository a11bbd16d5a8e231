#include "storage/file_io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include <unistd.h>

namespace burtree {
namespace io {

namespace {
FileIoHooks g_hooks;

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

ssize_t DoPread(int fd, void* buf, size_t len, off_t off) {
  return g_hooks.pread ? g_hooks.pread(fd, buf, len, off)
                       : ::pread(fd, buf, len, off);
}

ssize_t DoPwrite(int fd, const void* buf, size_t len, off_t off) {
  return g_hooks.pwrite ? g_hooks.pwrite(fd, buf, len, off)
                        : ::pwrite(fd, buf, len, off);
}

ssize_t DoPwritev(int fd, const struct iovec* iov, int cnt, off_t off) {
  return g_hooks.pwritev ? g_hooks.pwritev(fd, iov, cnt, off)
                         : ::pwritev(fd, iov, cnt, off);
}

// Cap per pwritev syscall; POSIX guarantees at least 16, Linux allows
// 1024.
constexpr size_t kMaxIov = 1024;
}  // namespace

void SetFileIoHooksForTest(FileIoHooks hooks) { g_hooks = std::move(hooks); }
void ClearFileIoHooksForTest() { g_hooks = FileIoHooks{}; }

Status PreadFully(int fd, uint8_t* buf, size_t len, off_t off) {
  while (len > 0) {
    const ssize_t r = DoPread(fd, buf, len, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("pread");
    }
    if (r == 0) return Status::IoError("pread: unexpected EOF");
    buf += r;
    len -= static_cast<size_t>(r);
    off += r;
  }
  return Status::OK();
}

Status PwriteFully(int fd, const uint8_t* buf, size_t len, off_t off) {
  while (len > 0) {
    const ssize_t r = DoPwrite(fd, buf, len, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite");
    }
    if (r == 0) return Status::IoError("pwrite: wrote nothing");
    buf += r;
    len -= static_cast<size_t>(r);
    off += r;
  }
  return Status::OK();
}

Status PwritevFully(int fd, std::vector<struct iovec> iov, off_t off) {
  // Issue up to kMaxIov iovecs per syscall and advance through partially
  // written entries.
  size_t v = 0;
  while (v < iov.size()) {
    const int cnt = static_cast<int>(std::min(iov.size() - v, kMaxIov));
    const ssize_t r = DoPwritev(fd, &iov[v], cnt, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("pwritev");
    }
    if (r == 0) return Status::IoError("pwritev: wrote nothing");
    off += r;
    size_t n = static_cast<size_t>(r);
    while (n > 0) {
      if (n >= iov[v].iov_len) {
        n -= iov[v].iov_len;
        ++v;
      } else {
        iov[v].iov_base = static_cast<uint8_t*>(iov[v].iov_base) + n;
        iov[v].iov_len -= n;
        n = 0;
      }
    }
  }
  return Status::OK();
}

}  // namespace io
}  // namespace burtree
