// WalManager unit tests: group-commit durability and fsync batching,
// the log-before-flush invariant through a real BufferPool, checkpoint
// truncation with LSN continuity, failed checkpoints (page sync, flush,
// directory sync after the rename), deferred frees, and the auto-scope
// fallback. The fsync-ordering test reads the log back through an
// independent file descriptor after WaitDurable — the same discipline
// the FilePageStore fsync test applies to data pages, extended here to
// the WAL append path.
#include "storage/wal/wal_manager.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "storage/file_io.h"
#include "storage/page_store.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;

std::string TempWalPath(const char* tag) {
  const char* tmp = ::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/burtree-walmgr-" + tag + "-" +
         std::to_string(::getpid()) + ".wal";
}

WalManagerOptions BareOptions(const char* tag) {
  WalManagerOptions o;
  o.path = TempWalPath(tag);
  o.page_size = kPageSize;
  o.group_commit_us = 200;
  o.delete_on_close = true;
  return o;
}

StorageOptions MemStorage() {
  StorageOptions s;
  return s;  // default backend: counted in-memory disk
}

/// Reads the whole log through its own fd — bytes the OS would have
/// after a crash at this instant (fdatasync already ran for them).
std::vector<uint8_t> ReadLogIndependently(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

/// The log's header base LSN and its first record, read independently.
struct FirstRecord {
  uint64_t base_lsn = 0;
  WalRecord rec;
  size_t consumed = 0;
};

FirstRecord ReadFirstRecord(const std::string& path) {
  const std::vector<uint8_t> bytes = ReadLogIndependently(path);
  FirstRecord f;
  size_t page_size = 0;
  EXPECT_TRUE(DecodeWalFileHeader(bytes.data(), bytes.size(), &page_size,
                                  &f.base_lsn)
                  .ok());
  if (bytes.size() < kWalFileHeaderSize) return f;
  EXPECT_EQ(DecodeWalRecord(bytes.data() + kWalFileHeaderSize,
                            bytes.size() - kWalFileHeaderSize, kPageSize,
                            f.base_lsn, &f.rec, &f.consumed),
            WalDecodeResult::kOk);
  return f;
}

TEST(WalManagerTest, AppendsAreDecodableThroughIndependentFdAfterWaitDurable) {
  auto wal = WalManager::MustOpen(BareOptions("fsync"));
  // Standalone root records: the simplest append that needs no pool.
  for (PageId r = 1; r <= 5; ++r) wal->NoteRootChange(r, 2);
  const uint64_t end = wal->appended_lsn();
  ASSERT_TRUE(wal->WaitDurable(end).ok());
  EXPECT_GE(wal->durable_lsn(), end);

  const std::vector<uint8_t> bytes = ReadLogIndependently(wal->path());
  size_t page_size = 0;
  uint64_t base_lsn = 0;
  ASSERT_TRUE(DecodeWalFileHeader(bytes.data(), bytes.size(), &page_size,
                                  &base_lsn)
                  .ok());
  EXPECT_EQ(page_size, kPageSize);
  EXPECT_EQ(base_lsn, 0u);

  size_t off = kWalFileHeaderSize;
  PageId expect_root = 1;
  while (off < bytes.size()) {
    WalRecord rec;
    size_t consumed = 0;
    ASSERT_EQ(DecodeWalRecord(bytes.data() + off, bytes.size() - off,
                              kPageSize, off - kWalFileHeaderSize, &rec,
                              &consumed),
              WalDecodeResult::kOk);
    ASSERT_TRUE(rec.has_root);
    EXPECT_EQ(rec.root, expect_root++);
    off += consumed;
  }
  EXPECT_EQ(expect_root, 6u);
  EXPECT_EQ(off - kWalFileHeaderSize, end);
}

// Log writes go through the shared resume loops (io::PwriteFully), so
// the one fault shim covers the log too: bounded short writes and EINTR
// must be invisible in the records that land.
TEST(WalManagerTest, LogWritesResumeThroughFileIoHooks) {
  struct HookGuard {
    ~HookGuard() { io::ClearFileIoHooksForTest(); }
  } guard;
  std::atomic<uint64_t> calls{0};
  io::FileIoHooks hooks;
  hooks.pwrite = [&](int fd, const void* buf, size_t len, off_t off) {
    if (calls.fetch_add(1) % 3 == 2) {
      errno = EINTR;
      return static_cast<ssize_t>(-1);
    }
    return ::pwrite(fd, buf, std::min<size_t>(len, 7), off);
  };
  io::SetFileIoHooksForTest(std::move(hooks));

  WalManagerOptions o = BareOptions("hooks");
  o.delete_on_close = false;  // read the log back after close
  constexpr PageId kRecords = 20;
  {
    auto wal = WalManager::MustOpen(o);
    for (PageId r = 1; r <= kRecords; ++r) wal->NoteRootChange(r, 1);
    ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  }
  io::ClearFileIoHooksForTest();

  const std::vector<uint8_t> bytes = ReadLogIndependently(o.path);
  ::unlink(o.path.c_str());
  size_t page_size = 0;
  uint64_t base_lsn = 0;
  ASSERT_TRUE(DecodeWalFileHeader(bytes.data(), bytes.size(), &page_size,
                                  &base_lsn)
                  .ok());
  size_t off = kWalFileHeaderSize;
  PageId expect_root = 1;
  while (off < bytes.size()) {
    WalRecord rec;
    size_t consumed = 0;
    ASSERT_EQ(DecodeWalRecord(bytes.data() + off, bytes.size() - off,
                              kPageSize, base_lsn + off - kWalFileHeaderSize,
                              &rec, &consumed),
              WalDecodeResult::kOk);
    ASSERT_TRUE(rec.has_root);
    EXPECT_EQ(rec.root, expect_root++);
    off += consumed;
  }
  EXPECT_EQ(expect_root, kRecords + 1);
  EXPECT_GT(calls.load(), static_cast<uint64_t>(kRecords));
}

TEST(WalManagerTest, GroupCommitBatchesFsyncs) {
  WalManagerOptions o = BareOptions("group");
  o.group_commit_us = 5000;  // wide window: many appends per fsync
  auto wal = WalManager::MustOpen(o);
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    wal->NoteRootChange(static_cast<PageId>(i + 1), 1);
  }
  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  const WalStats st = wal->stats();
  EXPECT_EQ(st.records, static_cast<uint64_t>(kRecords));
  // The point of group commit: far fewer fsyncs than records.
  EXPECT_LT(st.fsyncs, static_cast<uint64_t>(kRecords) / 4);
  EXPECT_GT(st.max_group_bytes, 0u);
}

TEST(WalManagerTest, ScopedCaptureStampsPageLsnAndLogsOneRecord) {
  auto wal = WalManager::MustOpen(BareOptions("scope"));
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  PageId a, b;
  {
    WalOpScope scope(wal.get());
    Page* pa = pool.NewPage();
    a = pa->page_id();
    std::memset(pa->data(), 0x11, kPageSize);
    pool.UnpinPage(a, /*dirty=*/true);
    Page* pb = pool.NewPage();
    b = pb->page_id();
    std::memset(pb->data(), 0x22, kPageSize);
    pool.UnpinPage(b, /*dirty=*/true);
    // Re-dirty a within the same scope: the record gains a third image
    // (a delta against the first capture); ordered replay reconverges.
    auto ra = pool.FetchPage(a);
    ASSERT_TRUE(ra.ok());
    std::memset(ra.value()->data(), 0x33, kPageSize);
    pool.UnpinPage(a, /*dirty=*/true);
  }  // destructor commits

  const WalStats st = wal->stats();
  EXPECT_EQ(st.records, 1u);
  EXPECT_EQ(st.images, 3u);
  EXPECT_EQ(st.auto_scopes, 0u);

  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  const WalRecord rec = ReadFirstRecord(wal->path()).rec;
  ASSERT_EQ(rec.images.size(), 3u);
  // Apply the images in order, the way Replay does, and check the final
  // state of both pages — the re-dirtied page must end at 0x33.
  std::map<PageId, std::vector<uint8_t>> applied;
  for (const auto& img : rec.images) {
    std::vector<uint8_t>& page = applied[img.id];
    if (!img.delta) {
      page = img.bytes;
    } else {
      ASSERT_EQ(page.size(), kPageSize) << "delta before any full image";
      const uint8_t* src = img.bytes.data();
      for (const WalExtent& e : img.extents) {
        std::memcpy(page.data() + e.offset, src, e.length);
        src += e.length;
      }
    }
  }
  ASSERT_EQ(applied.count(a), 1u);
  ASSERT_EQ(applied.count(b), 1u);
  EXPECT_EQ(applied[a], std::vector<uint8_t>(kPageSize, 0x33));
  EXPECT_EQ(applied[b], std::vector<uint8_t>(kPageSize, 0x22));
}

TEST(WalManagerTest, UnbracketedDirtyUnpinFallsBackToAutoScope) {
  auto wal = WalManager::MustOpen(BareOptions("auto"));
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, /*dirty=*/true);  // no scope on this thread
  const WalStats st = wal->stats();
  EXPECT_EQ(st.records, 1u);
  EXPECT_EQ(st.auto_scopes, 1u);
}

TEST(WalManagerTest, LogBeforeFlushHoldsDirtyFramesUntilDurable) {
  WalManagerOptions o = BareOptions("lbf");
  o.group_commit_us = 60ull * 1000 * 1000;  // park the committer
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/4);
  pool.set_wal(wal.get());

  constexpr int kPages = 8;
  {
    WalOpScope scope(wal.get());
    for (int i = 0; i < kPages; ++i) {
      Page* p = pool.NewPage();
      const PageId id = p->page_id();
      std::memset(p->data(), i + 1, kPageSize);
      pool.UnpinPage(id, /*dirty=*/true);
    }
  }
  // All 8 frames carry an undurable page LSN (the committer is parked),
  // so eviction must have skipped every victim: the shard stays over
  // budget rather than flushing ahead of the log.
  EXPECT_GT(wal->appended_lsn(), wal->durable_lsn());
  EXPECT_GT(pool.resident_frames(), pool.capacity());

  // Once the log is durable the same pass reclaims down to capacity.
  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  pool.Resize(4);
  EXPECT_LE(pool.resident_frames(), pool.capacity());
}

TEST(WalManagerTest, FlushPageInsideScopeIsRejected) {
  auto wal = WalManager::MustOpen(BareOptions("flushscope"));
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  WalOpScope scope(wal.get());
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, /*dirty=*/true);
  // The frame is wal-pending until Commit(): flushing it now would
  // write ahead of the log.
  EXPECT_EQ(pool.FlushPage(id).code(), StatusCode::kInvalidArgument);
  scope.Commit();
  ASSERT_TRUE(pool.FlushPage(id).ok());
}

TEST(WalManagerTest, CheckpointTruncatesAndPreservesLsnContinuity) {
  WalManagerOptions o = BareOptions("ckpt");
  o.delete_on_close = true;
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());
  wal->SetCheckpointHooks(WalManager::CheckpointHooks{
      [&] { return pool.FlushAll(); },
      [&] { pool.WalCheckpointBeginSync(); },
      [] { return Status::OK(); },
      [&] { return pool.WalDirtyRecFloor(); }});

  {
    WalOpScope scope(wal.get());
    Page* p = pool.NewPage();
    std::memset(p->data(), 0x5A, kPageSize);
    pool.UnpinPage(p->page_id(), /*dirty=*/true);
    // Through the manager, as the tree observer does: updates the
    // last-noted root (which the checkpoint record carries) and rides
    // this scope's record.
    wal->NoteRootChange(p->page_id(), 0);
  }
  const uint64_t pre_ckpt = wal->appended_lsn();
  ASSERT_GT(pre_ckpt, 0u);
  ASSERT_TRUE(wal->Checkpoint().ok());
  // A fuzzy checkpoint rewrites the file but does not itself append: the
  // stream position is unchanged and everything in it is durable.
  const uint64_t post_ckpt = wal->appended_lsn();
  EXPECT_EQ(post_ckpt, pre_ckpt);
  EXPECT_GE(wal->durable_lsn(), post_ckpt);
  EXPECT_EQ(wal->stats().checkpoints, 1u);

  // The fresh file carries one checkpoint record holding the last-noted
  // root, stamped so that the stream resumes exactly at the old end:
  // base + record size == pre-checkpoint end LSN.
  const FirstRecord first = ReadFirstRecord(wal->path());
  EXPECT_LT(first.base_lsn, pre_ckpt);
  EXPECT_EQ(first.rec.type, WalRecordType::kCheckpoint);
  EXPECT_TRUE(first.rec.has_root);
  EXPECT_EQ(first.base_lsn + first.consumed, pre_ckpt);

  // New appends after the checkpoint land right after the record.
  wal->NoteRootChange(42, 1);
  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  EXPECT_GT(wal->appended_lsn(), post_ckpt);
}

TEST(WalManagerTest, FailedPageSyncStopsCheckpointsInsteadOfTruncating) {
  WalManagerOptions o = BareOptions("syncfail");
  // Above the bare file header, below header + the page's record: the
  // committer's auto-checkpoint arms once that record is on disk.
  o.checkpoint_log_bytes = 128;
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());
  std::atomic<int> syncs{0};
  wal->SetCheckpointHooks(WalManager::CheckpointHooks{
      [&] { return pool.FlushAll(); },
      [&] { pool.WalCheckpointBeginSync(); },
      [&] {
        // EIO once, then success: Linux reports a failed write-back to
        // one fdatasync only, and a retry returns 0 for the lost pages.
        return syncs.fetch_add(1) == 0 ? Status::IoError("fdatasync: EIO")
                                       : Status::OK();
      },
      [&] { return pool.WalDirtyRecFloor(); }});

  PageId id;
  {
    WalOpScope scope(wal.get());
    Page* p = pool.NewPage();
    id = p->page_id();
    std::memset(p->data(), 0x5A, kPageSize);
    pool.UnpinPage(id, /*dirty=*/true);
    wal->NoteRootChange(id, 0);
  }
  // Whichever checkpoint syncs first (this one or the committer's armed
  // auto-checkpoint) fails, and the failure sticks: the flush already
  // marked the frame clean, so a retry would find nothing to protect and
  // cut the page's only durable copy out of the log.
  EXPECT_FALSE(wal->Checkpoint().ok());
  EXPECT_FALSE(wal->Checkpoint().ok());
  EXPECT_EQ(wal->stats().checkpoints, 0u);
  EXPECT_FALSE(wal->WaitDurable(wal->appended_lsn()).ok());
  const int syncs_after = syncs.load();

  // The log still starts at the original base with the page's record.
  const FirstRecord first = ReadFirstRecord(wal->path());
  EXPECT_EQ(first.base_lsn, 0u);
  EXPECT_EQ(first.rec.type, WalRecordType::kOp);
  ASSERT_EQ(first.rec.images.size(), 1u);
  EXPECT_EQ(first.rec.images[0].id, id);

  // The log is past the threshold, but the committer stops retrying.
  std::this_thread::sleep_for(
      std::chrono::microseconds(20 * o.group_commit_us));
  EXPECT_LE(syncs.load(), syncs_after + 1);

  // Nothing can become durable any more: a later op's record is dropped
  // instead of buffered, and its page stays out of the store
  // (log-before-flush holds in the failed state too).
  const WalStats before = wal->stats();
  {
    WalOpScope scope(wal.get());
    auto p = pool.FetchPage(id);
    ASSERT_TRUE(p.ok());
    std::memset(p.value()->data(), 0x77, kPageSize);
    pool.UnpinPage(id, /*dirty=*/true);
  }
  EXPECT_EQ(wal->stats().records, before.records);
  EXPECT_EQ(wal->stats().appended_bytes, before.appended_bytes);
  EXPECT_FALSE(wal->status().ok());
  EXPECT_FALSE(pool.FlushPage(id).ok());
  std::vector<uint8_t> on_store(kPageSize);
  ASSERT_TRUE(store->Read(id, on_store.data()).ok());
  EXPECT_EQ(on_store[0], 0x5A);
  wal->QuiesceCheckpoints();  // the pool dies first
}

TEST(WalManagerTest, FailedCheckpointFlushBacksOffInsteadOfRetrying) {
  WalManagerOptions o = BareOptions("flushfail");
  // Any record past the file header arms the auto-checkpoint.
  o.checkpoint_log_bytes = kWalFileHeaderSize;
  auto wal = WalManager::MustOpen(o);
  std::atomic<int> flushes{0};
  wal->SetCheckpointHooks(WalManager::CheckpointHooks{
      [&] {
        flushes.fetch_add(1);
        return Status::IoError("pwrite: EIO");
      },
      {}, {}, {}});
  wal->NoteRootChange(1, 0);
  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (flushes.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(o.group_commit_us));
  }
  ASSERT_EQ(flushes.load(), 1);
  // The failure left the log as it was and is not sticky, but the
  // committer holds off instead of re-running the flush every window.
  std::this_thread::sleep_for(
      std::chrono::microseconds(20 * o.group_commit_us));
  EXPECT_EQ(flushes.load(), 1);
  EXPECT_TRUE(wal->status().ok());
  wal->NoteRootChange(2, 0);
  EXPECT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  // A manual checkpoint is not held off.
  EXPECT_FALSE(wal->Checkpoint().ok());
  EXPECT_EQ(flushes.load(), 2);
  EXPECT_EQ(wal->stats().checkpoints, 0u);
}

TEST(WalManagerTest, FailedDirectorySyncAfterRenameIsSticky) {
  WalManagerOptions o = BareOptions("dirsync");
  o.checkpoint_log_bytes = 0;  // manual checkpoints only
  auto wal = WalManager::MustOpen(o);
  for (PageId r = 1; r <= 5; ++r) wal->NoteRootChange(r, 2);
  const uint64_t pre_ckpt = wal->appended_lsn();
  ASSERT_TRUE(wal->WaitDurable(pre_ckpt).ok());

  // Leave exactly one descriptor free: the checkpoint's fresh file takes
  // it, the rename succeeds, and opening the directory to fsync the
  // rename fails with EMFILE.
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> filler;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
    filler.push_back(fd);
  }
  const bool filled = !filler.empty();
  if (filled) {
    ::close(filler.back());
    filler.pop_back();
  }
  const Status s = filled ? wal->Checkpoint() : Status::OK();
  for (const int fd : filler) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(filled);
  ASSERT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  EXPECT_NE(s.ToString().find("open dir"), std::string::npos)
      << s.ToString();

  // The log's path names the fresh file now...
  const FirstRecord first = ReadFirstRecord(wal->path());
  EXPECT_EQ(first.rec.type, WalRecordType::kCheckpoint);
  EXPECT_EQ(first.base_lsn + first.consumed, pre_ckpt);
  // ...but a crash could still bring the old name back, so nothing
  // appended from here on may be acknowledged as durable.
  EXPECT_FALSE(wal->status().ok());
  EXPECT_EQ(wal->stats().checkpoints, 0u);
  wal->NoteRootChange(42, 1);
  EXPECT_FALSE(wal->WaitDurable(wal->appended_lsn()).ok());
  EXPECT_FALSE(wal->Checkpoint().ok());
}

TEST(WalManagerTest, DeferredFreeReleasesOnlyOnceDurable) {
  WalManagerOptions o = BareOptions("free");
  o.group_commit_us = 60ull * 1000 * 1000;  // park the committer
  auto wal = WalManager::MustOpen(o);
  auto store = MustMakePageStore(MemStorage(), kPageSize);
  BufferPool pool(store.get(), /*capacity=*/8);
  pool.set_wal(wal.get());

  int freed = 0;
  wal->SetFreeFn([&](PageId) { ++freed; });

  PageId id;
  {
    WalOpScope scope(wal.get());
    Page* p = pool.NewPage();
    id = p->page_id();
    pool.UnpinPage(id, /*dirty=*/true);
    scope.Commit();
    ASSERT_TRUE(pool.DeletePage(id).ok());
  }
  // The record is appended but not durable: the slot must not have been
  // handed back to the store yet.
  EXPECT_EQ(freed, 0);
  EXPECT_EQ(wal->stats().deferred_frees, 1u);

  ASSERT_TRUE(wal->WaitDurable(wal->appended_lsn()).ok());
  // The flush that made it durable also drained the release queue.
  EXPECT_EQ(freed, 1);
}

}  // namespace
}  // namespace burtree
