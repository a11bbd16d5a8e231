#include "storage/page_file.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;

TEST(PageFileTest, AllocateGrowsFile) {
  PageFile f(kPageSize);
  EXPECT_EQ(f.live_pages(), 0u);
  const PageId a = f.Allocate();
  const PageId b = f.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(f.live_pages(), 2u);
}

TEST(PageFileTest, WriteThenReadRoundTrips) {
  PageFile f(kPageSize);
  const PageId id = f.Allocate();
  uint8_t in[kPageSize], out[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) in[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(f.Write(id, in).ok());
  ASSERT_TRUE(f.Read(id, out).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST(PageFileTest, FreshPageIsZeroed) {
  PageFile f(kPageSize);
  const PageId id = f.Allocate();
  uint8_t out[kPageSize];
  ASSERT_TRUE(f.Read(id, out).ok());
  for (size_t i = 0; i < kPageSize; ++i) EXPECT_EQ(out[i], 0);
}

TEST(PageFileTest, FreeAndReuse) {
  PageFile f(kPageSize);
  const PageId a = f.Allocate();
  uint8_t buf[kPageSize];
  std::memset(buf, 0xAB, sizeof(buf));
  ASSERT_TRUE(f.Write(a, buf).ok());
  ASSERT_TRUE(f.Free(a).ok());
  EXPECT_EQ(f.live_pages(), 0u);
  // Reuse returns the same slot, zeroed.
  const PageId b = f.Allocate();
  EXPECT_EQ(a, b);
  ASSERT_TRUE(f.Read(b, buf).ok());
  for (size_t i = 0; i < kPageSize; ++i) EXPECT_EQ(buf[i], 0);
}

TEST(PageFileTest, AccessAfterFreeFails) {
  PageFile f(kPageSize);
  const PageId id = f.Allocate();
  ASSERT_TRUE(f.Free(id).ok());
  uint8_t buf[kPageSize] = {};
  EXPECT_FALSE(f.Read(id, buf).ok());
  EXPECT_FALSE(f.Write(id, buf).ok());
  EXPECT_FALSE(f.Free(id).ok());  // double free rejected
}

TEST(PageFileTest, OutOfRangeAccessFails) {
  PageFile f(kPageSize);
  uint8_t buf[kPageSize] = {};
  EXPECT_FALSE(f.Read(99, buf).ok());
  EXPECT_FALSE(f.Write(99, buf).ok());
}

TEST(PageFileTest, IoStatsCountAccesses) {
  PageFile f(kPageSize);
  const PageId id = f.Allocate();
  uint8_t buf[kPageSize] = {};
  EXPECT_EQ(f.io_stats().total_io(), 0u);  // allocation is not I/O
  ASSERT_TRUE(f.Write(id, buf).ok());
  ASSERT_TRUE(f.Read(id, buf).ok());
  ASSERT_TRUE(f.Read(id, buf).ok());
  EXPECT_EQ(f.io_stats().writes(), 1u);
  EXPECT_EQ(f.io_stats().reads(), 2u);
}

TEST(PageFileTest, ThreadIoCounterIsPerThread) {
  PageFile f(kPageSize);
  const PageId id = f.Allocate();
  uint8_t buf[kPageSize] = {};
  PageFile::ResetThreadIo();
  ASSERT_TRUE(f.Write(id, buf).ok());
  ASSERT_TRUE(f.Read(id, buf).ok());
  EXPECT_EQ(PageFile::thread_io(), 2u);

  std::thread other([&]() {
    PageFile::ResetThreadIo();
    EXPECT_EQ(PageFile::thread_io(), 0u);
    uint8_t b2[kPageSize] = {};
    ASSERT_TRUE(f.Read(id, b2).ok());
    EXPECT_EQ(PageFile::thread_io(), 1u);
  });
  other.join();
  EXPECT_EQ(PageFile::thread_io(), 2u);  // unaffected by the other thread
}

TEST(PageFileTest, ConcurrentDisjointWrites) {
  PageFile f(kPageSize);
  constexpr int kThreads = 8;
  std::vector<PageId> ids;
  for (int i = 0; i < kThreads; ++i) ids.push_back(f.Allocate());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint8_t buf[kPageSize];
      std::memset(buf, t + 1, sizeof(buf));
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(f.Write(ids[t], buf).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    uint8_t buf[kPageSize];
    ASSERT_TRUE(f.Read(ids[t], buf).ok());
    EXPECT_EQ(buf[0], t + 1);
    EXPECT_EQ(buf[kPageSize - 1], t + 1);
  }
}

TEST(PageFileTest, FlushDirtyBatchGroupWritesEveryPage) {
  PageFile f(kPageSize);
  std::vector<PageId> ids{f.Allocate(), f.Allocate(), f.Allocate()};
  std::vector<std::vector<uint8_t>> imgs;
  for (size_t i = 0; i < ids.size(); ++i) {
    imgs.emplace_back(kPageSize, static_cast<uint8_t>(0x60 + i));
  }
  std::vector<PageWriteRequest> reqs;
  for (size_t i = 0; i < ids.size(); ++i) {
    reqs.push_back(PageWriteRequest{ids[i], imgs[i].data()});
  }
  const uint64_t writes_before = f.io_stats().writes();
  PageFile::ResetThreadIo();
  ASSERT_TRUE(f.FlushDirtyBatch(reqs).ok());
  EXPECT_EQ(f.io_stats().writes(), writes_before + 3);  // paper metric: count
  EXPECT_EQ(PageFile::thread_io(), 3u);
  EXPECT_TRUE(f.FlushDirtyBatch({}).ok());  // empty batch: no-op
  EXPECT_EQ(f.io_stats().writes(), writes_before + 3);
  for (size_t i = 0; i < ids.size(); ++i) {
    uint8_t buf[kPageSize];
    ASSERT_TRUE(f.Read(ids[i], buf).ok());
    EXPECT_EQ(buf[0], 0x60 + static_cast<int>(i));
  }
  // A non-live id anywhere fails the batch before any bytes land.
  std::vector<PageWriteRequest> bad{{ids[0], imgs[1].data()},
                                    {ids[2] + 7, imgs[2].data()}};
  EXPECT_FALSE(f.FlushDirtyBatch(bad).ok());
  uint8_t buf[kPageSize];
  ASSERT_TRUE(f.Read(ids[0], buf).ok());
  EXPECT_EQ(buf[0], 0x60);  // untouched by the failed batch
}

TEST(PageFileTest, SleepLatencyModelBlocksInsteadOfSpinning) {
  PageFile f(kPageSize);
  const PageId id = f.Allocate();
  f.set_io_latency_ns(2'000'000);  // 2 ms: well above sleep granularity
  uint8_t buf[kPageSize];
  Stopwatch sw;
  ASSERT_TRUE(f.Read(id, buf).ok());
  EXPECT_GE(sw.ElapsedSeconds(), 0.002);
  // Batches charge the latency once, not per page.
  const std::vector<uint8_t> img(kPageSize, 0x5A);
  std::vector<PageWriteRequest> reqs{{id, img.data()}, {id, img.data()}};
  sw.Restart();
  ASSERT_TRUE(f.FlushDirtyBatch(reqs).ok());
  const double batch_s = sw.ElapsedSeconds();
  EXPECT_GE(batch_s, 0.002);
  EXPECT_LT(batch_s, 0.5);
}

TEST(PageFileTest, ConcurrentAllocateIsRaceFree) {
  PageFile f(kPageSize);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::vector<PageId>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) got[t].push_back(f.Allocate());
    });
  }
  for (auto& th : threads) th.join();
  std::vector<PageId> all;
  for (auto& v : got) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace burtree
