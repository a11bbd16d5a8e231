// The raw-I/O resume loops, driven through the fault-injection hook
// table (storage/file_io.h): bounded partial transfers and injected
// EINTR must be invisible to callers, and real errors — including a
// call that transfers nothing — must surface instead of spinning.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "storage/file_io.h"

namespace burtree {
namespace {

// A scratch file under the test tempdir, closed and unlinked on exit.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name) {
    path_ = ::testing::TempDir() + "/" + name;
    fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
    EXPECT_GE(fd_, 0) << std::strerror(errno);
  }
  ~ScratchFile() {
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  int fd() const { return fd_; }

 private:
  std::string path_;
  int fd_ = -1;
};

// Clears the global hook table even when a test fails mid-way.
struct HookGuard {
  ~HookGuard() { io::ClearFileIoHooksForTest(); }
};

std::vector<uint8_t> Pattern(size_t n, uint8_t salt) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>((i * 131 + salt) & 0xff);
  }
  return v;
}

TEST(ResumeLoopTest, PwriteThenPreadFullyUnderPartialTransfersAndEintr) {
  ScratchFile f("resume_loop");
  const std::vector<uint8_t> data = Pattern(1000, 7);

  // Every third call fails with EINTR; successful calls transfer at
  // most 7 bytes. The loops must stitch the full transfer anyway.
  HookGuard guard;
  std::atomic<uint64_t> calls{0};
  io::FileIoHooks hooks;
  hooks.pwrite = [&](int fd, const void* buf, size_t len, off_t off) {
    if (calls.fetch_add(1) % 3 == 2) {
      errno = EINTR;
      return static_cast<ssize_t>(-1);
    }
    return ::pwrite(fd, buf, std::min<size_t>(len, 7), off);
  };
  hooks.pread = [&](int fd, void* buf, size_t len, off_t off) {
    if (calls.fetch_add(1) % 3 == 2) {
      errno = EINTR;
      return static_cast<ssize_t>(-1);
    }
    return ::pread(fd, buf, std::min<size_t>(len, 7), off);
  };
  io::SetFileIoHooksForTest(std::move(hooks));

  ASSERT_TRUE(io::PwriteFully(f.fd(), data.data(), data.size(), 16).ok());
  std::vector<uint8_t> back(data.size(), 0);
  ASSERT_TRUE(io::PreadFully(f.fd(), back.data(), back.size(), 16).ok());
  EXPECT_EQ(back, data);
  // The 7-byte cap forces many resumptions — prove the loops looped.
  EXPECT_GT(calls.load(), 2 * (data.size() / 7));
}

TEST(ResumeLoopTest, PreadFullyReportsEofAsError) {
  ScratchFile f("eof");
  ASSERT_EQ(::ftruncate(f.fd(), 64), 0);
  std::vector<uint8_t> buf(128, 0);
  const Status s = io::PreadFully(f.fd(), buf.data(), buf.size(), 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("EOF"), std::string::npos) << s.ToString();
}

TEST(ResumeLoopTest, RealErrorsSurfaceWithErrnoText) {
  ScratchFile f("err");
  HookGuard guard;
  io::FileIoHooks hooks;
  hooks.pwrite = [](int, const void*, size_t, off_t) {
    errno = ENOSPC;
    return static_cast<ssize_t>(-1);
  };
  io::SetFileIoHooksForTest(std::move(hooks));
  const uint8_t b = 0;
  const Status s = io::PwriteFully(f.fd(), &b, 1, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find(std::strerror(ENOSPC)), std::string::npos)
      << s.ToString();
}

TEST(ResumeLoopTest, VectoredIoAdvancesThroughPartialIovecs) {
  ScratchFile f("vectored");
  // Four buffers of uneven sizes; the hook transfers at most 5 bytes
  // per call, so nearly every call splits an iovec mid-way.
  std::vector<std::vector<uint8_t>> bufs;
  for (size_t i = 0; i < 4; ++i) bufs.push_back(Pattern(3 + 4 * i, 11 + i));

  HookGuard guard;
  std::atomic<uint64_t> calls{0};
  auto clamp = [](const struct iovec* iov, int cnt, size_t cap) {
    std::vector<struct iovec> out;
    size_t left = cap;
    for (int i = 0; i < cnt && left > 0; ++i) {
      struct iovec v = iov[i];
      v.iov_len = std::min(v.iov_len, left);
      left -= v.iov_len;
      out.push_back(v);
    }
    return out;
  };
  io::FileIoHooks hooks;
  hooks.pwritev = [&](int fd, const struct iovec* iov, int cnt, off_t off) {
    if (calls.fetch_add(1) % 4 == 3) {
      errno = EINTR;
      return static_cast<ssize_t>(-1);
    }
    auto small = clamp(iov, cnt, 5);
    return ::pwritev(fd, small.data(), static_cast<int>(small.size()), off);
  };
  io::SetFileIoHooksForTest(std::move(hooks));

  std::vector<struct iovec> wv;
  std::vector<uint8_t> flat;
  for (auto& b : bufs) {
    wv.push_back({b.data(), b.size()});
    flat.insert(flat.end(), b.begin(), b.end());
  }
  ASSERT_TRUE(io::PwritevFully(f.fd(), wv, 0).ok());
  // The 5-byte cap forces many resumptions — prove the loop looped.
  EXPECT_GT(calls.load(), flat.size() / 5);

  std::vector<uint8_t> back(flat.size(), 0);
  ASSERT_TRUE(io::PreadFully(f.fd(), back.data(), back.size(), 0).ok());
  EXPECT_EQ(back, flat);
}

// A pwrite that reports 0 bytes for a non-empty buffer makes no
// progress: retrying it can spin forever, so the loop must fail on the
// first such call, as PwritevFully does.
TEST(ResumeLoopTest, ZeroBytePwriteFailsInsteadOfSpinning) {
  ScratchFile f("zero_write");
  HookGuard guard;
  uint64_t calls = 0;
  io::FileIoHooks hooks;
  hooks.pwrite = [&](int, const void*, size_t, off_t) {
    if (++calls > 1000) {
      errno = EIO;
      return static_cast<ssize_t>(-1);
    }
    return static_cast<ssize_t>(0);
  };
  io::SetFileIoHooksForTest(std::move(hooks));
  const std::vector<uint8_t> data = Pattern(64, 1);
  const Status s = io::PwriteFully(f.fd(), data.data(), data.size(), 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(calls, 1u);
  EXPECT_NE(s.ToString().find("wrote nothing"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace burtree
