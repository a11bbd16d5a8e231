// The latch-free miss path: a fetch that misses reads the disk with no
// shard latch held (per-shard miss-in-flight table + condition variable,
// symmetric to the eviction write-back detachment). These tests pin the
// protocol: a slow page read must not block same-shard hits, concurrent
// fetches of one page must coalesce into a single disk read, a failed
// read must wake waiters, and the whole thing must survive a
// multi-thread stress run under TSan.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "common/random.h"
#include "storage/page_file.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;

// ---------------------------------------------------------------------------
// The acceptance property: with the latch-free miss path, a slow page
// read no longer blocks same-shard buffer hits (the timed counterpart of
// SlowVictimFlushDoesNotBlockSameShardHits from PR 3).
// ---------------------------------------------------------------------------

TEST(BufferMissPathTest, SlowMissDoesNotBlockSameShardHits) {
  PageFile file(kPageSize);
  constexpr uint64_t kMissMs = 300;
  for (int i = 0; i < 4; ++i) file.Allocate();
  BufferPool pool(&file, /*capacity=*/4, /*shards=*/1);

  // Make page 0 resident (a future hit) with the disk still fast.
  ASSERT_TRUE(pool.FetchPage(0).ok());
  pool.UnpinPage(0, /*dirty=*/false);

  file.set_io_latency_ns(kMissMs * 1000 * 1000);
  file.set_io_latency_model(PageFile::IoLatencyModel::kSleep);

  // Thread A misses on page 1: with the sleep-model disk the read takes
  // kMissMs, during which the shard latch must be free.
  std::atomic<bool> started{false};
  std::atomic<double> miss_ms{0.0};
  std::thread slow([&]() {
    started = true;
    const auto t0 = std::chrono::steady_clock::now();
    auto res = pool.FetchPage(1);
    miss_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    ASSERT_TRUE(res.ok());
    pool.UnpinPage(1, /*dirty=*/false);
  });
  while (!started) std::this_thread::yield();
  // Give the loader time to publish its in-flight marker and enter the
  // latch-free disk sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Hit resident page 0 on the SAME shard while the miss read sleeps.
  const auto t0 = std::chrono::steady_clock::now();
  auto hit = pool.FetchPage(0);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_TRUE(hit.ok());
  pool.UnpinPage(0, false);
  slow.join();
  // Non-vacuousness: the miss really was in flight while the hit above
  // was timed.
  EXPECT_GE(miss_ms.load(), kMissMs * 0.8)
      << "miss read did not run where the test expects";
  // The hit must not have waited out the miss (generous margin: half the
  // simulated read latency).
  EXPECT_LT(ms, kMissMs / 2.0) << "hit blocked behind same-shard miss";

  file.set_io_latency_ns(0);
  ASSERT_TRUE(pool.FlushAll().ok());
}

TEST(BufferMissPathTest, SlowMissDoesNotBlockOtherSameShardMisses) {
  PageFile file(kPageSize);
  constexpr uint64_t kMissMs = 250;
  for (int i = 0; i < 8; ++i) file.Allocate();
  BufferPool pool(&file, /*capacity=*/8, /*shards=*/1);

  file.set_io_latency_ns(kMissMs * 1000 * 1000);
  file.set_io_latency_model(PageFile::IoLatencyModel::kSleep);

  // Four misses on distinct pages of the one shard, concurrently. With
  // the read under the shard latch they would serialize (~4 * kMissMs);
  // latch-free they overlap (~1 * kMissMs).
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (PageId id = 0; id < 4; ++id) {
    threads.emplace_back([&, id]() {
      auto res = pool.FetchPage(id);
      ASSERT_TRUE(res.ok());
      pool.UnpinPage(id, /*dirty=*/false);
    });
  }
  for (auto& t : threads) t.join();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 2.5 * kMissMs) << "distinct-page misses serialized";
  EXPECT_EQ(file.io_stats().reads(), 4u);

  file.set_io_latency_ns(0);
  ASSERT_TRUE(pool.FlushAll().ok());
}

TEST(BufferMissPathTest, ConcurrentFetchesOfOnePageCoalesceIntoOneRead) {
  PageFile file(kPageSize);
  for (int i = 0; i < 4; ++i) file.Allocate();
  // Stamp page 2 so every fetcher can check it got real bytes.
  {
    uint8_t img[kPageSize] = {};
    img[9] = 0xC3;
    ASSERT_TRUE(file.Write(2, img).ok());
  }
  BufferPool pool(&file, /*capacity=*/4, /*shards=*/1);
  file.set_io_latency_ns(150ull * 1000 * 1000);  // 150 ms reads
  file.set_io_latency_model(PageFile::IoLatencyModel::kSleep);

  const uint64_t reads_before = file.io_stats().reads();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      auto res = pool.FetchPage(2);
      ASSERT_TRUE(res.ok());
      EXPECT_EQ(res.value()->data()[9], 0xC3);
      pool.UnpinPage(2, /*dirty=*/false);
    });
  }
  for (auto& t : threads) t.join();
  // One loader read the page; the other three waited on the in-flight
  // marker and then hit the published frame — no duplicate disk reads.
  EXPECT_EQ(file.io_stats().reads(), reads_before + 1);
  const BufferStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);

  file.set_io_latency_ns(0);
  ASSERT_TRUE(pool.FlushAll().ok());
}

TEST(BufferMissPathTest, FailedMissWakesWaitersAndPropagatesError) {
  PageFile file(kPageSize);
  file.Allocate();  // page 0 exists; page 7 does not
  BufferPool pool(&file, /*capacity=*/2, /*shards=*/1);

  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&]() {
      auto res = pool.FetchPage(7);
      if (!res.ok()) errors.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  // Every fetcher must come back with the error, none may hang on the
  // in-flight marker of a failed read.
  EXPECT_EQ(errors.load(), 3);
  // And the pool still works afterwards.
  auto res = pool.FetchPage(0);
  ASSERT_TRUE(res.ok());
  pool.UnpinPage(0, false);
  ASSERT_TRUE(pool.FlushAll().ok());
}

// ---------------------------------------------------------------------------
// Miss-in-flight stress: many threads, small pool, slow disk — evictions,
// write-backs, coalesced misses and hits all interleaving on two shards.
// Run under TSan by the concurrency CI leg.
// ---------------------------------------------------------------------------

TEST(BufferMissPathTest, MissInFlightStressKeepsFramesConsistent) {
  PageFile file(kPageSize);
  constexpr size_t kPages = 48;
  for (size_t i = 0; i < kPages; ++i) {
    file.Allocate();
    // Per-page fingerprint in byte 0, never overwritten below: a torn or
    // stale miss read would surface as a wrong fingerprint.
    uint8_t img[kPageSize] = {};
    img[0] = static_cast<uint8_t>(0xA0 ^ i);
    ASSERT_TRUE(file.Write(static_cast<PageId>(i), img).ok());
  }
  // Tiny capacity forces constant eviction + refetch traffic.
  BufferPool pool(&file, /*capacity=*/8, /*shards=*/2);
  file.set_io_latency_ns(200 * 1000);  // 200 us sleep-model reads
  file.set_io_latency_model(PageFile::IoLatencyModel::kSleep);

  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(1234 + t);
      for (uint64_t i = 0; i < kOpsPerThread && !failed; ++i) {
        const PageId id = static_cast<PageId>(rng.NextBelow(kPages));
        auto res = pool.FetchPage(id);
        if (!res.ok() ||
            res.value()->data()[0] != (0xA0 ^ static_cast<uint8_t>(id))) {
          failed = true;
          break;
        }
        // Thread-unique byte: dirties the frame without cross-thread
        // data races on the image.
        res.value()->data()[16 + t] = static_cast<uint8_t>(i & 0xFF);
        pool.UnpinPage(id, /*dirty=*/rng.NextBool(0.5));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed) << "lost pin, failed fetch, or stale miss bytes";

  file.set_io_latency_ns(0);
  // No leaked pins: every page fetches at pin count 1.
  for (PageId id = 0; id < kPages; ++id) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value()->pin_count(), 1) << "leaked pin on page " << id;
    EXPECT_EQ(res.value()->data()[0], 0xA0 ^ static_cast<uint8_t>(id));
    pool.UnpinPage(id, false);
  }
  EXPECT_LE(pool.resident_frames(), 8u);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Conservation: every counted miss did exactly one disk read — waiters
  // that coalesced onto an in-flight read were counted as hits.
  EXPECT_EQ(file.io_stats().reads(), pool.stats().misses);
}

// ---------------------------------------------------------------------------
// DeletePage vs. a transient no-latch pin. Optimistic snapshot copies
// pin a page while holding no latch on it, so a structural delete (leaf
// condense, root shrink) can catch the page momentarily pinned.
// DeletePage must wait the pin out, not fail the whole update with
// InvalidArgument (a schedule-fuzz flake this reproduces
// deterministically).
// ---------------------------------------------------------------------------

TEST(BufferMissPathTest, DeletePageWaitsOutTransientPin) {
  PageFile file(kPageSize);
  for (int i = 0; i < 4; ++i) file.Allocate();
  BufferPool pool(&file, /*capacity=*/4, /*shards=*/1);

  auto res = pool.FetchPage(2);  // the transient no-latch pin
  ASSERT_TRUE(res.ok());

  std::atomic<bool> deleted{false};
  std::thread deleter([&]() {
    ASSERT_TRUE(pool.DeletePage(2).ok());  // must block, then succeed
    deleted = true;
  });
  // The deleter must be parked on the pin, not done and not failed.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(deleted.load());

  pool.UnpinPage(2, /*dirty=*/false);
  deleter.join();
  EXPECT_TRUE(deleted.load());
  // The frame is gone: a re-fetch would read the freed slot, so just
  // check the pool's view directly via a fresh allocation reusing it.
  EXPECT_EQ(file.live_pages(), 3u);
}

}  // namespace
}  // namespace burtree
