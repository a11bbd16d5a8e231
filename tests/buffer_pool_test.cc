#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>

#include "buffer/page_guard.h"
#include "storage/file_io.h"
#include "storage/file_page_store.h"
#include "storage/page_file.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(kPageSize) {}
  PageFile file_;
};

TEST_F(BufferPoolTest, NewPageIsPinnedAndDirty) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  EXPECT_EQ(p->pin_count(), 1);
  EXPECT_TRUE(p->is_dirty());
  pool.UnpinPage(p->page_id(), false);
}

TEST_F(BufferPoolTest, FetchHitAvoidsDiskRead) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, true);
  const uint64_t reads_before = file_.io_stats().reads();
  auto res = pool.FetchPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(file_.io_stats().reads(), reads_before);  // buffer hit
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.UnpinPage(id, false);
}

TEST_F(BufferPoolTest, PassThroughModeAlwaysHitsDisk) {
  BufferPool pool(&file_, 0);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  std::memset(p->data(), 0x5A, kPageSize);
  pool.UnpinPage(id, true);  // immediate eviction + write in 0-capacity
  EXPECT_EQ(file_.io_stats().writes(), 1u);
  for (int i = 1; i <= 3; ++i) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value()->data()[0], 0x5A);
    pool.UnpinPage(id, false);
    EXPECT_EQ(file_.io_stats().reads(), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST_F(BufferPoolTest, EvictsLruVictim) {
  BufferPool pool(&file_, 2);
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    Page* p = pool.NewPage();
    ids[i] = p->page_id();
    p->data()[0] = static_cast<uint8_t>(i + 1);
    pool.UnpinPage(ids[i], true);
  }
  // Capacity 2: creating the third page evicted the least recent (ids[0]).
  EXPECT_EQ(pool.resident_frames(), 2u);
  EXPECT_GE(file_.io_stats().writes(), 1u);
  // Refetch ids[0]: must come from disk with its content intact.
  const uint64_t reads_before = file_.io_stats().reads();
  auto res = pool.FetchPage(ids[0]);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->data()[0], 1);
  EXPECT_EQ(file_.io_stats().reads(), reads_before + 1);
  pool.UnpinPage(ids[0], false);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(&file_, 1);
  Page* a = pool.NewPage();
  Page* b = pool.NewPage();  // over capacity, but `a` is pinned
  EXPECT_EQ(pool.resident_frames(), 2u);
  pool.UnpinPage(a->page_id(), true);
  pool.UnpinPage(b->page_id(), true);
  EXPECT_LE(pool.resident_frames(), 1u);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  BufferPool pool(&file_, 1);
  Page* a = pool.NewPage();
  const PageId id_a = a->page_id();
  std::memset(a->data(), 0x77, kPageSize);
  pool.UnpinPage(id_a, true);
  Page* b = pool.NewPage();  // evicts a
  pool.UnpinPage(b->page_id(), true);
  uint8_t raw[kPageSize];
  ASSERT_TRUE(file_.Read(id_a, raw).ok());
  EXPECT_EQ(raw[0], 0x77);
}

TEST_F(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  BufferPool pool(&file_, 8);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  std::memset(p->data(), 0x11, kPageSize);
  pool.UnpinPage(id, true);
  EXPECT_EQ(file_.io_stats().writes(), 0u);  // still buffered
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(file_.io_stats().writes(), 1u);
  // Second flush is a no-op (page now clean).
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(file_.io_stats().writes(), 1u);
}

TEST_F(BufferPoolTest, DeletePageFreesDiskPage) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, true);
  ASSERT_TRUE(pool.DeletePage(id).ok());
  EXPECT_EQ(file_.live_pages(), 0u);
  EXPECT_FALSE(pool.FetchPage(id).ok());
}

TEST_F(BufferPoolTest, DeletePinnedPageFails) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  EXPECT_FALSE(pool.DeletePage(p->page_id()).ok());
  pool.UnpinPage(p->page_id(), false);
  EXPECT_TRUE(pool.DeletePage(p->page_id()).ok());
}

TEST_F(BufferPoolTest, ResizeShrinksResidency) {
  BufferPool pool(&file_, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    Page* p = pool.NewPage();
    ids.push_back(p->page_id());
    pool.UnpinPage(p->page_id(), true);
  }
  EXPECT_EQ(pool.resident_frames(), 8u);
  pool.Resize(2);
  EXPECT_LE(pool.resident_frames(), 2u);
  // Everything must still be readable after eviction.
  for (PageId id : ids) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok());
    pool.UnpinPage(id, false);
  }
}

TEST_F(BufferPoolTest, RepinKeepsFrameAlive) {
  BufferPool pool(&file_, 4);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  auto res = pool.FetchPage(id);  // second pin
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(p->pin_count(), 2);
  pool.UnpinPage(id, false);
  pool.UnpinPage(id, true);
  EXPECT_EQ(p->pin_count(), 0);
}

TEST_F(BufferPoolTest, PageGuardUnpinsOnScopeExit) {
  BufferPool pool(&file_, 4);
  PageId id;
  {
    PageGuard g = PageGuard::New(&pool);
    id = g.id();
    EXPECT_EQ(g.page()->pin_count(), 1);
  }
  auto res = pool.FetchPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->pin_count(), 1);  // guard released its pin
  pool.UnpinPage(id, false);
}

TEST_F(BufferPoolTest, PageGuardMovePreservesSinglePin) {
  BufferPool pool(&file_, 4);
  PageGuard a = PageGuard::New(&pool);
  const PageId id = a.id();
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.page()->pin_count(), 1);
  b.Release();
  auto res = pool.FetchPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->pin_count(), 1);
  pool.UnpinPage(id, false);
}

TEST_F(BufferPoolTest, GuardDirtyPropagation) {
  BufferPool pool(&file_, 1);
  PageId id;
  {
    PageGuard g = PageGuard::New(&pool);
    id = g.id();
    g.data()[0] = 0x42;
    g.MarkDirty();
  }
  // Force eviction by creating another page.
  {
    PageGuard g2 = PageGuard::New(&pool);
  }
  uint8_t raw[kPageSize];
  ASSERT_TRUE(file_.Read(id, raw).ok());
  EXPECT_EQ(raw[0], 0x42);
}

// A failed eviction write-back (ENOSPC on the file backend) must not
// lose the only copy of a dirty page: the victim is re-adopted resident
// and dirty, the counters say nothing left the pool, and the write
// succeeds once the device recovers.
TEST(BufferWritebackFailureTest, EvictionErrorKeepsTheFrameResidentAndDirty) {
  FilePageStoreOptions opts;
  opts.path = ::testing::TempDir() + "/burtree-writeback-fail-" +
              std::to_string(::getpid()) + ".pages";
  opts.page_size = kPageSize;
  opts.unlink_after_open = true;
  auto store_or = FilePageStore::Open(opts);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  std::unique_ptr<FilePageStore> store = std::move(store_or).value();
  BufferPool pool(store.get(), /*capacity=*/1, /*shards=*/1);

  // Page a's first image reaches disk, then a newer one stays dirty.
  Page* p = pool.NewPage();
  const PageId a = p->page_id();
  std::memset(p->data(), 0x11, kPageSize);
  pool.UnpinPage(a, /*dirty=*/true);
  ASSERT_TRUE(pool.FlushAll().ok());
  auto fa = pool.FetchPage(a);
  ASSERT_TRUE(fa.ok());
  std::memset(fa.value()->data(), 0x22, kPageSize);
  pool.UnpinPage(a, /*dirty=*/true);
  const BufferStats before = pool.stats();

  struct HookGuard {
    ~HookGuard() { io::ClearFileIoHooksForTest(); }
  } guard;
  io::FileIoHooks hooks;
  hooks.pwrite = [](int, const void*, size_t, off_t) {
    errno = ENOSPC;
    return static_cast<ssize_t>(-1);
  };
  hooks.pwritev = [](int, const struct iovec*, int, off_t) {
    errno = ENOSPC;
    return static_cast<ssize_t>(-1);
  };
  io::SetFileIoHooksForTest(std::move(hooks));

  // A second page pushes a out of the one-frame pool; its write fails.
  Page* q = pool.NewPage();
  const PageId b = q->page_id();
  EXPECT_EQ(pool.resident_frames(), 2u);  // a re-adopted: over budget
  EXPECT_EQ(pool.stats().flushes, before.flushes);
  EXPECT_EQ(pool.stats().evictions, before.evictions);

  // The pool serves the new bytes, not the stale disk image.
  auto again = pool.FetchPage(a);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value()->is_dirty());
  EXPECT_EQ(again.value()->data()[0], 0x22);
  EXPECT_EQ(again.value()->data()[kPageSize - 1], 0x22);
  pool.UnpinPage(a, /*dirty=*/false);

  io::ClearFileIoHooksForTest();
  ASSERT_TRUE(pool.FlushAll().ok());
  uint8_t raw[kPageSize];
  ASSERT_TRUE(store->Read(a, raw).ok());
  EXPECT_EQ(raw[0], 0x22);
  EXPECT_EQ(raw[kPageSize - 1], 0x22);
  pool.UnpinPage(b, /*dirty=*/true);
}

}  // namespace
}  // namespace burtree
