// The shared raw-I/O layer under FilePageStore and the WAL: EINTR and
// short-transfer resume loops (io::PreadFully / io::PwriteFully /
// io::PwritevFully), routed through a test-only hook table so one
// fault-injection shim covers every page and log transfer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include <sys/types.h>
#include <sys/uio.h>

#include "common/status.h"

namespace burtree {
namespace io {

/// Test-only syscall interposition: when set, the resume loops below
/// call these instead of the real pread/pwrite/pwritev. A hook
/// may return short counts or fail with errno = EINTR to exercise the
/// resume paths; unset members fall through to the real syscall.
struct FileIoHooks {
  std::function<ssize_t(int, void*, size_t, off_t)> pread;
  std::function<ssize_t(int, const void*, size_t, off_t)> pwrite;
  std::function<ssize_t(int, const struct iovec*, int, off_t)> pwritev;
};

/// Installs/removes the hook table (not thread-safe against concurrent
/// I/O — set it up before the store or log under test issues any).
void SetFileIoHooksForTest(FileIoHooks hooks);
void ClearFileIoHooksForTest();

/// Loops pread until `len` bytes landed in `buf`, resuming after EINTR
/// and short reads. EOF is an error: callers only read extents they
/// ftruncate-extended.
Status PreadFully(int fd, uint8_t* buf, size_t len, off_t off);

/// Loops pwrite until `len` bytes are written, resuming after EINTR and
/// short writes. A call that writes nothing is an error, not a retry.
Status PwriteFully(int fd, const uint8_t* buf, size_t len, off_t off);

/// Loops pwritev until every iovec is written: issues up to
/// IOV_MAX-sized slices and advances through partially written iovecs.
/// Takes the vector by value — it is consumed as the loop advances. A
/// call that writes nothing is an error, as in PwriteFully.
Status PwritevFully(int fd, std::vector<struct iovec> iov, off_t off);

}  // namespace io
}  // namespace burtree
