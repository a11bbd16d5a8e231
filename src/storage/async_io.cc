#include "storage/async_io.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include <unistd.h>

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#if defined(__NR_io_uring_setup) && defined(__NR_io_uring_enter)
#define BURTREE_HAS_IO_URING 1
#endif
#endif

namespace burtree {

const char* IoEngineName(IoEngineKind kind) {
  switch (kind) {
    case IoEngineKind::kSync: return "sync";
    case IoEngineKind::kPool: return "pool";
    case IoEngineKind::kUring: return "uring";
  }
  return "?";
}

bool ParseIoEngine(const std::string& s, IoEngineKind* out) {
  if (s == "sync") {
    *out = IoEngineKind::kSync;
    return true;
  }
  if (s == "pool") {
    *out = IoEngineKind::kPool;
    return true;
  }
  if (s == "uring") {
    *out = IoEngineKind::kUring;
    return true;
  }
  return false;
}

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

ssize_t DoPreadv(int fd, const struct iovec* iov, int cnt, off_t off) {
  return g_hooks.preadv ? g_hooks.preadv(fd, iov, cnt, off)
                        : ::preadv(fd, iov, cnt, off);
}

ssize_t DoPwritev(int fd, const struct iovec* iov, int cnt, off_t off) {
  return g_hooks.pwritev ? g_hooks.pwritev(fd, iov, cnt, off)
                         : ::pwritev(fd, iov, cnt, off);
}

// Cap per preadv/pwritev syscall; POSIX guarantees at least 16, Linux
// allows 1024.
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
    buf += r;
    len -= static_cast<size_t>(r);
    off += r;
  }
  return Status::OK();
}

Status VectoredIo(int fd, std::vector<struct iovec> iov, off_t off,
                  bool write) {
  // One resume loop for both directions: issue up to kMaxIov iovecs per
  // syscall and advance through partially transferred entries.
  size_t v = 0;
  while (v < iov.size()) {
    const int cnt = static_cast<int>(std::min(iov.size() - v, kMaxIov));
    const ssize_t r = write ? DoPwritev(fd, &iov[v], cnt, off)
                            : DoPreadv(fd, &iov[v], cnt, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno(write ? "pwritev" : "preadv");
    }
    if (r == 0) {
      return Status::IoError(write ? "pwritev: wrote nothing"
                                   : "preadv: unexpected EOF");
    }
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

AsyncIoEngine::~AsyncIoEngine() = default;

namespace {

/// Performs one unit's transfer (+ optional fdatasync) with the shared
/// resume loops, sleeps out the unit's synthetic-latency deadline, and
/// invokes the completion. Used verbatim by the pool workers and by the
/// uring engine's synchronous-recovery path.
void ExecuteUnit(IoRequest req) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(req.latency_ns);
  Status s = io::VectoredIo(req.fd, std::move(req.iov), req.offset,
                            req.op == IoRequest::Op::kWrite);
  if (s.ok() && req.datasync_after && ::fdatasync(req.fd) != 0) {
    s = Status::IoError(std::string("fdatasync: ") + std::strerror(errno));
  }
  if (req.latency_ns != 0) std::this_thread::sleep_until(deadline);
  if (req.done) req.done(s);
}

size_t ClampDepth(size_t queue_depth) {
  return std::max<size_t>(1, std::min<size_t>(queue_depth, 128));
}

/// Portable fallback: queue_depth worker threads popping a FIFO
/// submission queue. Overlap comes from the workers' concurrent
/// transfers (and concurrent synthetic-latency sleeps).
class PoolIoEngine final : public AsyncIoEngine {
 public:
  explicit PoolIoEngine(size_t queue_depth) : depth_(ClampDepth(queue_depth)) {
    workers_.reserve(depth_);
    for (size_t i = 0; i < depth_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~PoolIoEngine() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    // Workers drain the queue before exiting: every submitted unit
    // completes (the engine contract owners rely on at teardown).
    for (auto& w : workers_) w.join();
  }

  void Submit(IoRequest req) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(req));
    }
    cv_.notify_one();
  }

  IoEngineKind kind() const override { return IoEngineKind::kPool; }
  size_t queue_depth() const override { return depth_; }

 private:
  void WorkerLoop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      IoRequest req = std::move(queue_.front());
      queue_.pop_front();
      lk.unlock();
      ExecuteUnit(std::move(req));
      lk.lock();
    }
  }

  const size_t depth_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<IoRequest> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

#ifdef BURTREE_HAS_IO_URING

int UringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int UringEnter(int fd, unsigned to_submit, unsigned min_complete,
               unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

/// Raw-syscall io_uring engine: a submitter thread encodes queued units
/// into SQEs (a datasync_after unit becomes a PWRITEV linked to an
/// FSYNC|DATASYNC), a reaper thread collects CQEs, resumes short or
/// failed transfers synchronously with the shared loops, and completes.
/// In-flight SQEs are capped at the ring size, so the CQ (2× as large)
/// can never overflow.
class UringIoEngine final : public AsyncIoEngine {
 public:
  /// nullptr when io_uring_setup or the ring mmaps fail (old kernel,
  /// seccomp sandbox) — the caller falls back to the pool engine.
  static std::unique_ptr<UringIoEngine> TryCreate(size_t queue_depth) {
    std::unique_ptr<UringIoEngine> e(new UringIoEngine(ClampDepth(queue_depth)));
    if (!e->Init()) return nullptr;
    e->Start();
    return e;
  }

  ~UringIoEngine() override {
    if (ring_fd_ >= 0 && submitter_.joinable()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      submitter_.join();
      reaper_.join();
    }
    if (sqes_mm_ != nullptr) ::munmap(sqes_mm_, sqes_mm_len_);
    if (cq_mm_ != nullptr && cq_mm_ != sq_mm_) ::munmap(cq_mm_, cq_mm_len_);
    if (sq_mm_ != nullptr) ::munmap(sq_mm_, sq_mm_len_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  void Submit(IoRequest req) override {
    auto u = std::make_unique<Unit>();
    u->deadline = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(req.latency_ns);
    for (const auto& v : req.iov) u->total_len += v.iov_len;
    u->req = std::move(req);
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_.push_back(std::move(u));
    }
    cv_.notify_all();
  }

  IoEngineKind kind() const override { return IoEngineKind::kUring; }
  size_t queue_depth() const override { return depth_; }

 private:
  struct Unit {
    IoRequest req;
    std::chrono::steady_clock::time_point deadline;
    size_t total_len = 0;
    int cqes_left = 1;
    ssize_t rw_res = 0;
    int sync_res = 0;
  };

  explicit UringIoEngine(size_t depth) : depth_(depth) {}

  bool Init() {
    unsigned entries = 8;
    while (entries < depth_ * 2 && entries < 512) entries <<= 1;
    struct io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    ring_fd_ = UringSetup(entries, &p);
    if (ring_fd_ < 0) return false;
    sq_entries_ = p.sq_entries;

    sq_mm_len_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_mm_len_ = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
    const bool single = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single) sq_mm_len_ = cq_mm_len_ = std::max(sq_mm_len_, cq_mm_len_);
    sq_mm_ = ::mmap(nullptr, sq_mm_len_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_mm_ == MAP_FAILED) {
      sq_mm_ = nullptr;
      return false;
    }
    cq_mm_ = single ? sq_mm_
                    : ::mmap(nullptr, cq_mm_len_, PROT_READ | PROT_WRITE,
                             MAP_SHARED | MAP_POPULATE, ring_fd_,
                             IORING_OFF_CQ_RING);
    if (cq_mm_ == MAP_FAILED) {
      cq_mm_ = nullptr;
      return false;
    }
    sqes_mm_len_ = p.sq_entries * sizeof(struct io_uring_sqe);
    sqes_mm_ = ::mmap(nullptr, sqes_mm_len_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
    if (sqes_mm_ == MAP_FAILED) {
      sqes_mm_ = nullptr;
      return false;
    }

    auto* sq = static_cast<uint8_t*>(sq_mm_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    sqes_ = static_cast<struct io_uring_sqe*>(sqes_mm_);
    auto* cq = static_cast<uint8_t*>(cq_mm_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq + p.cq_off.cqes);
    return true;
  }

  void Start() {
    submitter_ = std::thread([this] { SubmitterLoop(); });
    reaper_ = std::thread([this] { ReaperLoop(); });
  }

  size_t SqesFor(const Unit& u) const { return u.req.datasync_after ? 2 : 1; }

  bool HaveRoomLocked() const {
    return !pending_.empty() &&
           inflight_sqes_ + SqesFor(*pending_.front()) <= sq_entries_ &&
           inflight_units_ < depth_;
  }

  void SubmitterLoop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] {
        return HaveRoomLocked() || (stop_ && pending_.empty());
      });
      if (stop_ && pending_.empty()) return;
      unsigned n = 0;
      while (HaveRoomLocked()) {
        Unit* u = pending_.front().release();
        pending_.pop_front();
        inflight_sqes_ += SqesFor(*u);
        ++inflight_units_;
        n += EncodeSqes(u);
      }
      cv_.notify_all();  // wake the reaper: in-flight work exists now
      lk.unlock();
      // Submit only; the reaper waits for completions independently.
      (void)UringEnter(ring_fd_, n, 0, 0);
      lk.lock();
    }
  }

  /// Only the submitter writes the SQ tail, so plain writes + one
  /// release-store publish are enough.
  unsigned EncodeSqes(Unit* u) {
    unsigned tail = *sq_tail_;
    {
      struct io_uring_sqe* sqe = &sqes_[tail & sq_mask_];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = u->req.op == IoRequest::Op::kWrite ? IORING_OP_WRITEV
                                                       : IORING_OP_READV;
      sqe->fd = u->req.fd;
      sqe->addr = reinterpret_cast<uint64_t>(u->req.iov.data());
      sqe->len = static_cast<unsigned>(u->req.iov.size());
      sqe->off = static_cast<uint64_t>(u->req.offset);
      if (u->req.datasync_after) sqe->flags |= IOSQE_IO_LINK;
      sqe->user_data = reinterpret_cast<uint64_t>(u);
      sq_array_[tail & sq_mask_] = tail & sq_mask_;
      ++tail;
    }
    unsigned encoded = 1;
    if (u->req.datasync_after) {
      u->cqes_left = 2;
      struct io_uring_sqe* sqe = &sqes_[tail & sq_mask_];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_FSYNC;
      sqe->fd = u->req.fd;
      sqe->fsync_flags = IORING_FSYNC_DATASYNC;
      // Low pointer bit tags the fsync CQE (units are heap-aligned).
      sqe->user_data = reinterpret_cast<uint64_t>(u) | 1;
      sq_array_[tail & sq_mask_] = tail & sq_mask_;
      ++tail;
      ++encoded;
    }
    __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);
    return encoded;
  }

  void ReaperLoop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] {
          return inflight_sqes_ > 0 || (stop_ && pending_.empty());
        });
        if (inflight_sqes_ == 0) return;  // stop_ set and fully drained
      }
      // Block for at least one completion (returns immediately if the
      // CQ already has entries), then drain the ring.
      if (__atomic_load_n(cq_head_, __ATOMIC_ACQUIRE) ==
          __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE)) {
        (void)UringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
      }
      std::vector<Unit*> completed;
      unsigned reaped = 0;
      unsigned head = *cq_head_;
      const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      while (head != tail) {
        const struct io_uring_cqe* cqe = &cqes_[head & cq_mask_];
        Unit* u = reinterpret_cast<Unit*>(cqe->user_data & ~uint64_t{1});
        if ((cqe->user_data & 1) != 0) {
          u->sync_res = cqe->res;
        } else {
          u->rw_res = cqe->res;
        }
        if (--u->cqes_left == 0) completed.push_back(u);
        ++head;
        ++reaped;
      }
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
      for (Unit* u : completed) Finalize(u);
      if (reaped > 0) {
        std::lock_guard<std::mutex> lk(mu_);
        inflight_sqes_ -= reaped;
        inflight_units_ -= completed.size();
        cv_.notify_all();  // submitter may have queued units waiting for room
      }
    }
  }

  /// Resolves a unit once all its CQEs arrived: short and failed
  /// transfers are recovered synchronously with the shared resume loops
  /// (a short linked write may have fsynced only the partial bytes, so
  /// recovery re-syncs after finishing the tail).
  void Finalize(Unit* u) {
    std::unique_ptr<Unit> owner(u);
    Status s;
    const bool write = u->req.op == IoRequest::Op::kWrite;
    bool need_sync_retry = false;
    if (u->rw_res < 0) {
      // Nothing transferred: redo the whole unit synchronously (covers
      // -EINTR/-EAGAIN; a real error surfaces from the resume loop). The
      // linked fsync, if any, was cancelled with the failed write.
      s = io::VectoredIo(u->req.fd, u->req.iov, u->req.offset, write);
      need_sync_retry = u->req.datasync_after;
    } else if (static_cast<size_t>(u->rw_res) < u->total_len) {
      std::vector<struct iovec> rest = u->req.iov;
      size_t n = static_cast<size_t>(u->rw_res);
      size_t v = 0;
      while (n > 0 && v < rest.size()) {
        if (n >= rest[v].iov_len) {
          n -= rest[v].iov_len;
          ++v;
        } else {
          rest[v].iov_base = static_cast<uint8_t*>(rest[v].iov_base) + n;
          rest[v].iov_len -= n;
          n = 0;
        }
      }
      rest.erase(rest.begin(), rest.begin() + static_cast<ptrdiff_t>(v));
      s = io::VectoredIo(u->req.fd, std::move(rest),
                         u->req.offset + u->rw_res, write);
      need_sync_retry = u->req.datasync_after;
    } else if (u->req.datasync_after && u->sync_res < 0 &&
               u->sync_res != -ECANCELED) {
      s = Status::IoError(std::string("io_uring fsync: ") +
                          std::strerror(-u->sync_res));
    }
    if (s.ok() && need_sync_retry && ::fdatasync(u->req.fd) != 0) {
      s = Status::IoError(std::string("fdatasync: ") + std::strerror(errno));
    }
    if (u->req.latency_ns != 0) std::this_thread::sleep_until(u->deadline);
    if (u->req.done) u->req.done(s);
  }

  const size_t depth_;
  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;

  void* sq_mm_ = nullptr;
  size_t sq_mm_len_ = 0;
  void* cq_mm_ = nullptr;
  size_t cq_mm_len_ = 0;
  void* sqes_mm_ = nullptr;
  size_t sqes_mm_len_ = 0;

  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  struct io_uring_sqe* sqes_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  struct io_uring_cqe* cqes_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Unit>> pending_;
  size_t inflight_sqes_ = 0;
  size_t inflight_units_ = 0;
  bool stop_ = false;
  std::thread submitter_;
  std::thread reaper_;
};

#endif  // BURTREE_HAS_IO_URING

}  // namespace

std::unique_ptr<AsyncIoEngine> AsyncIoEngine::Create(IoEngineKind kind,
                                                     size_t queue_depth) {
  if (kind == IoEngineKind::kSync) return nullptr;
#ifdef BURTREE_HAS_IO_URING
  if (kind == IoEngineKind::kUring) {
    auto uring = UringIoEngine::TryCreate(queue_depth);
    if (uring != nullptr) return uring;
    // Fall through: io_uring_setup unavailable (old kernel, seccomp).
  }
#endif
  return std::make_unique<PoolIoEngine>(queue_depth);
}

}  // namespace burtree
