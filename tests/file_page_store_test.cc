// FilePageStore tests against a real tmpdir file: PageStore-contract
// parity with the in-memory PageFile, reopen-and-reread round trips,
// write-back durability ordering (all pwrites of a batch land before
// the Sync that follows it returns), and FlushDirtyBatch partial-failure
// atomicity.
#include "storage/file_page_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/page_file.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 512;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "burtree_fps_" + name + ".pages";
}

std::unique_ptr<FilePageStore> MustOpen(FilePageStoreOptions opts) {
  auto store = FilePageStore::Open(opts);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

FilePageStoreOptions BaseOptions(const std::string& name) {
  FilePageStoreOptions opts;
  opts.path = TestPath(name);
  opts.page_size = kPageSize;
  return opts;
}

TEST(FilePageStoreTest, WriteThenReadRoundTripsAndCountsIo) {
  auto f = MustOpen(BaseOptions("roundtrip"));
  EXPECT_EQ(f->live_pages(), 0u);
  const PageId id = f->Allocate();
  EXPECT_EQ(f->io_stats().total_io(), 0u);  // allocation is not I/O
  uint8_t in[kPageSize], out[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) in[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(f->Write(id, in).ok());
  ASSERT_TRUE(f->Read(id, out).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
  EXPECT_EQ(f->io_stats().writes(), 1u);
  EXPECT_EQ(f->io_stats().reads(), 1u);
  std::remove(f->path().c_str());
}

TEST(FilePageStoreTest, FreshAndReusedPagesReadZeroed) {
  auto f = MustOpen(BaseOptions("zeroed"));
  const PageId a = f->Allocate();
  uint8_t buf[kPageSize];
  ASSERT_TRUE(f->Read(a, buf).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(buf[i], 0);
  std::memset(buf, 0xAB, sizeof(buf));
  ASSERT_TRUE(f->Write(a, buf).ok());
  ASSERT_TRUE(f->Free(a).ok());
  const PageId b = f->Allocate();  // reuses the slot, zeroed
  EXPECT_EQ(a, b);
  ASSERT_TRUE(f->Read(b, buf).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(buf[i], 0);
  std::remove(f->path().c_str());
}

TEST(FilePageStoreTest, AccessAfterFreeOrOutOfRangeFails) {
  auto f = MustOpen(BaseOptions("nonlive"));
  const PageId id = f->Allocate();
  ASSERT_TRUE(f->Free(id).ok());
  uint8_t buf[kPageSize] = {};
  EXPECT_FALSE(f->Read(id, buf).ok());
  EXPECT_FALSE(f->Write(id, buf).ok());
  EXPECT_FALSE(f->Free(id).ok());  // double free rejected
  EXPECT_FALSE(f->Read(99, buf).ok());
  std::remove(f->path().c_str());
}

TEST(FilePageStoreTest, ReopenAndRereadRoundTrip) {
  FilePageStoreOptions opts = BaseOptions("reopen");
  {
    auto f = MustOpen(opts);
    for (int i = 0; i < 3; ++i) {
      const PageId id = f->Allocate();
      std::vector<uint8_t> img(kPageSize, static_cast<uint8_t>(0x40 + i));
      ASSERT_TRUE(f->Write(id, img.data()).ok());
    }
    ASSERT_TRUE(f->Sync().ok());
  }  // store closed: the only handle on the bytes is the file itself
  FilePageStoreOptions reopen = opts;
  reopen.truncate = false;
  auto f = MustOpen(reopen);
  // No persistent allocation metadata: every slot of the file is live.
  EXPECT_EQ(f->allocated_slots(), 3u);
  EXPECT_EQ(f->live_pages(), 3u);
  for (PageId id = 0; id < 3; ++id) {
    uint8_t buf[kPageSize];
    ASSERT_TRUE(f->Read(id, buf).ok());
    EXPECT_EQ(buf[0], 0x40 + static_cast<int>(id));
    EXPECT_EQ(buf[kPageSize - 1], 0x40 + static_cast<int>(id));
  }
  std::remove(opts.path.c_str());
}

TEST(FilePageStoreTest, ReopenRejectsTornFileSize) {
  const std::string path = TestPath("torn");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("not a page multiple", 19);
  }
  FilePageStoreOptions opts;
  opts.path = path;
  opts.page_size = kPageSize;
  opts.truncate = false;
  auto store = FilePageStore::Open(opts);
  EXPECT_FALSE(store.ok());
  // A torn tail is an I/O-level crash artifact, not a caller mistake:
  // the WAL recovery path keys its tail-truncation handling on IoError.
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, CrashTornTailTruncatesToPageBoundaryAndReopens) {
  // The documented recovery procedure (docs/STORAGE.md §WAL): a writer
  // killed mid-pwrite leaves size % page_size != 0; recovery truncates
  // the partial page away and adopts the remainder — the dropped page's
  // record is durable (log-before-flush), so replay rewrites it.
  const std::string path = TestPath("torn_mid_page");
  {
    FilePageStoreOptions opts;
    opts.path = path;
    opts.page_size = kPageSize;
    auto f = MustOpen(opts);
    const PageId a = f->Allocate();
    const PageId b = f->Allocate();
    std::vector<uint8_t> img(kPageSize, 0x7A);
    ASSERT_TRUE(f->Write(a, img.data()).ok());
    img.assign(kPageSize, 0x7B);
    ASSERT_TRUE(f->Write(b, img.data()).ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  // Simulate the kill landing mid-way through page b's pwrite.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(kPageSize + kPageSize / 2)),
            0);

  FilePageStoreOptions opts;
  opts.path = path;
  opts.page_size = kPageSize;
  opts.truncate = false;
  EXPECT_EQ(FilePageStore::Open(opts).status().code(),
            StatusCode::kIoError);

  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(kPageSize)), 0);
  auto adopted = FilePageStore::Open(opts);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted.value()->live_pages(), 1u);
  uint8_t buf[kPageSize];
  ASSERT_TRUE(adopted.value()->Read(0, buf).ok());
  EXPECT_EQ(buf[0], 0x7A);
  adopted.value().reset();
  std::remove(path.c_str());
}

TEST(FilePageStoreTest, FlushDirtyBatchIsDurableOrderedAndCounted) {
  auto f = MustOpen(BaseOptions("durable"));
  std::vector<PageId> ids{f->Allocate(), f->Allocate(), f->Allocate()};
  std::vector<std::vector<uint8_t>> imgs;
  for (size_t i = 0; i < ids.size(); ++i) {
    imgs.emplace_back(kPageSize, static_cast<uint8_t>(0x60 + i));
  }
  std::vector<PageWriteRequest> reqs;
  for (size_t i = 0; i < ids.size(); ++i) {
    reqs.push_back(PageWriteRequest{ids[i], imgs[i].data()});
  }
  ASSERT_TRUE(f->FlushDirtyBatch(reqs).ok());
  // The WAL checkpoint's page-side durability point.
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(f->io_stats().writes(), 3u);  // one counted write per page
  // Ordering contract: by the time Sync returned, every pwrite of the
  // batch had been issued and fdatasync'd — an independent reader of the
  // file (a second open, sharing nothing with our descriptor but the
  // inode) must see the new bytes.
  {
    std::ifstream in(f->path(), std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<char> disk(3 * kPageSize);
    in.read(disk.data(), static_cast<std::streamsize>(disk.size()));
    ASSERT_EQ(in.gcount(), static_cast<std::streamsize>(disk.size()));
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(static_cast<uint8_t>(disk[ids[i] * kPageSize]), 0x60 + i);
      EXPECT_EQ(static_cast<uint8_t>(disk[(ids[i] + 1) * kPageSize - 1]),
                0x60 + i);
    }
  }
  // A non-live id anywhere fails the whole batch before any bytes land.
  std::vector<PageWriteRequest> bad{{ids[0], imgs[1].data()},
                                    {static_cast<PageId>(ids[2] + 7),
                                     imgs[2].data()}};
  EXPECT_FALSE(f->FlushDirtyBatch(bad).ok());
  uint8_t buf[kPageSize];
  ASSERT_TRUE(f->Read(ids[0], buf).ok());
  EXPECT_EQ(buf[0], 0x60);  // untouched by the failed batch
  std::remove(f->path().c_str());
}

TEST(FilePageStoreTest, BatchedIoHandlesGapsAndDuplicates) {
  auto f = MustOpen(BaseOptions("batched"));
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(f->Allocate());
  ASSERT_TRUE(f->Free(ids[3]).ok());  // punch a hole in the id range
  // Out-of-order, non-contiguous, duplicated ids: the pwritev grouping
  // must split runs at the gap and at the duplicate, and the later copy
  // of a duplicate wins, as in PageFile's sequential application.
  std::vector<std::vector<uint8_t>> imgs;
  for (int i = 0; i < 5; ++i) {
    imgs.emplace_back(kPageSize, static_cast<uint8_t>(0x30 + i));
  }
  std::vector<PageWriteRequest> reqs{{ids[5], imgs[0].data()},
                                     {ids[0], imgs[1].data()},
                                     {ids[1], imgs[2].data()},
                                     {ids[0], imgs[3].data()},
                                     {ids[4], imgs[4].data()}};
  const uint64_t writes_before = f->io_stats().writes();
  ASSERT_TRUE(f->FlushDirtyBatch(reqs).ok());
  EXPECT_EQ(f->io_stats().writes(), writes_before + 5);
  uint8_t buf[kPageSize];
  ASSERT_TRUE(f->Read(ids[5], buf).ok());
  EXPECT_EQ(buf[0], 0x30);
  ASSERT_TRUE(f->Read(ids[0], buf).ok());
  EXPECT_EQ(buf[0], 0x33);
  ASSERT_TRUE(f->Read(ids[1], buf).ok());
  EXPECT_EQ(buf[0], 0x32);
  ASSERT_TRUE(f->Read(ids[2], buf).ok());
  EXPECT_EQ(buf[0], 0x00);  // inside the gap: untouched
  ASSERT_TRUE(f->Read(ids[4], buf).ok());
  EXPECT_EQ(buf[kPageSize - 1], 0x34);
  std::remove(f->path().c_str());
}

TEST(FilePageStoreTest, UnlinkAfterOpenLeavesNoFileBehind) {
  FilePageStoreOptions opts = BaseOptions("scratch");
  opts.unlink_after_open = true;
  auto f = MustOpen(opts);
  const PageId id = f->Allocate();
  uint8_t buf[kPageSize] = {0x11};
  ASSERT_TRUE(f->Write(id, buf).ok());  // I/O still works on the inode
  std::ifstream in(opts.path, std::ios::binary);
  EXPECT_FALSE(in.good());  // the name is already gone
}

TEST(FilePageStoreTest, MatchesMemStoreOnRandomOpScript) {
  // Replay one pseudo-random allocate/free/write/read/batch script
  // against PageFile and FilePageStore and require identical results:
  // same ids, same bytes, same IoStats — the backends are interchangeable
  // behind the PageStore contract.
  PageFile mem(kPageSize);
  auto file = MustOpen(BaseOptions("script"));
  std::vector<PageId> live;
  Rng rng(20030901);
  for (int step = 0; step < 800; ++step) {
    const double r = rng.NextDouble();
    if (live.empty() || r < 0.25) {
      const PageId a = mem.Allocate();
      const PageId b = file->Allocate();
      ASSERT_EQ(a, b);
      live.push_back(a);
      std::vector<uint8_t> img(kPageSize, static_cast<uint8_t>(step));
      ASSERT_TRUE(mem.Write(a, img.data()).ok());
      ASSERT_TRUE(file->Write(a, img.data()).ok());
    } else if (r < 0.55) {
      const PageId id = live[rng.NextBelow(live.size())];
      uint8_t ma[kPageSize], mb[kPageSize];
      ASSERT_TRUE(mem.Read(id, ma).ok());
      ASSERT_TRUE(file->Read(id, mb).ok());
      ASSERT_EQ(std::memcmp(ma, mb, kPageSize), 0) << "page " << id;
    } else if (r < 0.75) {
      std::vector<PageWriteRequest> ra, rb;
      std::vector<std::vector<uint8_t>> imgs;
      imgs.reserve(live.size());  // keep the request pointers stable
      for (PageId id : live) {
        imgs.emplace_back(kPageSize,
                          static_cast<uint8_t>(step ^ static_cast<int>(id)));
        ra.push_back(PageWriteRequest{id, imgs.back().data()});
        rb.push_back(PageWriteRequest{id, imgs.back().data()});
      }
      ASSERT_TRUE(mem.FlushDirtyBatch(ra).ok());
      ASSERT_TRUE(file->FlushDirtyBatch(rb).ok());
    } else if (r < 0.9) {
      for (PageId id : live) {
        uint8_t ma[kPageSize], mb[kPageSize];
        ASSERT_TRUE(mem.Read(id, ma).ok());
        ASSERT_TRUE(file->Read(id, mb).ok());
        ASSERT_EQ(std::memcmp(ma, mb, kPageSize), 0) << "page " << id;
      }
    } else {
      const size_t k = rng.NextBelow(live.size());
      ASSERT_TRUE(mem.Free(live[k]).ok());
      ASSERT_TRUE(file->Free(live[k]).ok());
      live.erase(live.begin() + static_cast<long>(k));
    }
    ASSERT_EQ(mem.live_pages(), file->live_pages());
    ASSERT_EQ(mem.allocated_slots(), file->allocated_slots());
  }
  EXPECT_EQ(mem.io_stats().reads(), file->io_stats().reads());
  EXPECT_EQ(mem.io_stats().writes(), file->io_stats().writes());
  std::remove(file->path().c_str());
}

}  // namespace
}  // namespace burtree
