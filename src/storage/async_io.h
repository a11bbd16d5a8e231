// AsyncIoEngine: the asynchronous I/O engine behind FilePageStore and
// the WAL committer — callers submit vectored read/write units with a
// completion callback and keep computing while the transfers run.
// Three implementations selected by `--io-engine sync|pool|uring`
// (StorageOptions::io_engine):
//
//   * sync  — no engine at all (Create returns nullptr); the stores keep
//     their classic blocking pread/pwrite paths.
//   * pool  — a submission-queue + completion-queue thread pool: one
//     worker per queue-depth slot pops units FIFO, performs the transfer
//     with the shared resume loops below, and invokes the completion.
//     The portable fallback; works everywhere POSIX does.
//   * uring — raw-syscall Linux io_uring (no liburing dependency): a
//     submitter thread turns units into SQEs (appends get an
//     IOSQE_IO_LINK'd IORING_FSYNC_DATASYNC), a reaper thread collects
//     CQEs, resumes short transfers synchronously, and completes. Falls
//     back to the pool engine at Create() time when io_uring_setup is
//     unavailable (old kernel, seccomp sandbox) — kind() reports what
//     is active.
//
// Synthetic latency: each unit carries latency_ns (snapshotted from the
// store's io_latency_ns at submit). The engine stamps a deadline when
// the unit starts and sleeps until it after the real transfer, so K
// in-flight units overlap their simulated device time — the sync
// engine's per-call blocking charge stays in the stores, untouched.
//
// This header also hosts the shared raw-I/O layer: EINTR/short-transfer
// resume loops (io::PreadFully / io::PwriteFully / io::VectoredIo) used
// by FilePageStore and every engine, routed through a test-only hook
// table so one fault-injection shim covers both the blocking and the
// async paths.
//
// Submission/completion protocol, lock-ordering rows, and the
// engine-choice guide live in docs/STORAGE.md §Async I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/uio.h>

#include "common/options.h"
#include "common/status.h"

namespace burtree {

/// "sync" / "pool" / "uring" for table headers and --help text.
const char* IoEngineName(IoEngineKind kind);

/// Parses an --io-engine flag value ("sync", "pool", "uring").
bool ParseIoEngine(const std::string& s, IoEngineKind* out);

namespace io {

/// Test-only syscall interposition: when set, the resume loops below
/// call these instead of the real pread/pwrite/preadv/pwritev. A hook
/// may return short counts or fail with errno = EINTR to exercise the
/// resume paths; unset members fall through to the real syscall.
struct FileIoHooks {
  std::function<ssize_t(int, void*, size_t, off_t)> pread;
  std::function<ssize_t(int, const void*, size_t, off_t)> pwrite;
  std::function<ssize_t(int, const struct iovec*, int, off_t)> preadv;
  std::function<ssize_t(int, const struct iovec*, int, off_t)> pwritev;
};

/// Installs/removes the hook table (not thread-safe against concurrent
/// I/O — set it up before the store or engine under test issues any).
void SetFileIoHooksForTest(FileIoHooks hooks);
void ClearFileIoHooksForTest();

/// Loops pread until `len` bytes landed in `buf`, resuming after EINTR
/// and short reads. EOF is an error: callers only read extents they
/// ftruncate-extended.
Status PreadFully(int fd, uint8_t* buf, size_t len, off_t off);

/// Loops pwrite until `len` bytes are written, resuming after EINTR and
/// short writes.
Status PwriteFully(int fd, const uint8_t* buf, size_t len, off_t off);

/// One preadv/pwritev resume loop for both directions: issues up to
/// IOV_MAX-sized slices and advances through partially transferred
/// iovecs. Takes the vector by value — it is consumed as the loop
/// advances.
Status VectoredIo(int fd, std::vector<struct iovec> iov, off_t off,
                  bool write);

}  // namespace io

/// One asynchronous I/O unit: a vectored positioned transfer plus an
/// optional trailing fdatasync, completed by calling `done` exactly once
/// from an engine thread. The iovec base pointers (and the buffers they
/// name) must stay valid until `done` runs.
struct IoRequest {
  enum class Op { kRead, kWrite };
  Op op = Op::kRead;
  int fd = -1;
  off_t offset = 0;
  std::vector<struct iovec> iov;

  /// fdatasync(fd) after the transfer lands (WAL appends: on the uring
  /// engine this becomes an IOSQE_IO_LINK'd IORING_OP_FSYNC).
  bool datasync_after = false;

  /// Synthetic device latency for this unit (0 = none): the engine
  /// sleeps out the remainder of `start + latency_ns` after the real
  /// transfer, so concurrent units overlap their simulated seeks.
  uint64_t latency_ns = 0;

  /// Completion callback, invoked exactly once from an engine thread.
  /// Runs with no engine lock held; it may submit follow-up requests
  /// but must not block on this engine's own completions.
  std::function<void(Status)> done;
};

/// Engine interface. Submit() never blocks on the device: units queue
/// when all slots are busy. Destruction drains — every submitted unit
/// is executed (not dropped) and its completion invoked before the
/// destructor returns, so owners may destroy the engine before closing
/// the file descriptors the queued units target.
class AsyncIoEngine {
 public:
  virtual ~AsyncIoEngine();

  AsyncIoEngine() = default;
  AsyncIoEngine(const AsyncIoEngine&) = delete;
  AsyncIoEngine& operator=(const AsyncIoEngine&) = delete;

  virtual void Submit(IoRequest req) = 0;

  /// The engine actually running (kPool after a uring setup fallback).
  virtual IoEngineKind kind() const = 0;

  /// Concurrent in-flight unit target (the pool's worker count; the
  /// uring in-flight SQE cap).
  virtual size_t queue_depth() const = 0;

  /// Builds the configured engine. kSync returns nullptr (callers keep
  /// their blocking paths); kUring falls back to the pool engine when
  /// io_uring is unavailable at runtime. queue_depth is clamped to
  /// [1, 128].
  static std::unique_ptr<AsyncIoEngine> Create(IoEngineKind kind,
                                               size_t queue_depth);
};

}  // namespace burtree
