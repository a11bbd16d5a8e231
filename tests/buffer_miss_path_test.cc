// The latch-free miss path: a fetch that misses reads the disk with no
// shard latch held (per-shard miss-in-flight table + condition variable,
// symmetric to the eviction write-back detachment). These tests pin the
// protocol: a slow page read must not block same-shard hits, concurrent
// fetches of one page must coalesce into a single disk read, a failed
// read must wake waiters, and the whole thing must survive a
// multi-thread stress run under TSan. CopyPage, the pin-free read of the
// optimistic query descent, shares the miss path and is held to the
// same protocol.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
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
// DeletePage vs. a transient no-latch pin. CopyPage's miss path — an
// optimistic snapshot of a non-resident node — pins a page while holding
// no latch on it, so a structural delete (leaf condense, root shrink) can
// catch the page momentarily pinned. DeletePage must wait the pin out,
// not fail the whole update with InvalidArgument (a schedule-fuzz flake
// this reproduces deterministically). A CopyPage hit never pins, so it
// never makes a delete wait.
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

TEST(BufferMissPathTest, DeletePageDoesNotWaitOnCopyPageHit) {
  PageFile file(kPageSize);
  for (int i = 0; i < 4; ++i) file.Allocate();
  BufferPool pool(&file, /*capacity=*/4, /*shards=*/1);
  for (PageId id = 0; id < 4; ++id) {  // all resident: copies below hit
    ASSERT_TRUE(pool.FetchPage(id).ok());
    pool.UnpinPage(id, /*dirty=*/false);
  }
  uint8_t buf[kPageSize];

  // A hit leaves no pin behind: were one left, this delete would park on
  // it until its 10 s deadline and then fail with InvalidArgument.
  ASSERT_TRUE(pool.CopyPage(2, buf).ok());
  ASSERT_TRUE(pool.DeletePage(2).ok());

  // The same page copied from another thread while it is deleted: the
  // copier's hits interleave with the delete, and once the page is gone
  // its next copy misses and reports the freed page.
  std::atomic<uint64_t> copies{0};
  std::atomic<bool> stop{false};
  std::thread copier([&]() {
    uint8_t mine[kPageSize];
    while (!stop.load() && pool.CopyPage(3, mine).ok()) copies.fetch_add(1);
  });
  while (copies.load() < 100) std::this_thread::yield();
  ASSERT_TRUE(pool.DeletePage(3).ok());
  stop = true;
  copier.join();
  EXPECT_EQ(file.live_pages(), 2u);
}

// ---------------------------------------------------------------------------
// CopyPage's miss path is FetchPage's: it waits out an in-flight
// write-back of the page and coalesces onto an in-flight read of it.
// GatedStore parks one kind of I/O until the test opens the gate, so the
// test acts while that I/O is deterministically in flight.
// ---------------------------------------------------------------------------

class GatedStore final : public PageStore {
 public:
  explicit GatedStore(PageFile* inner)
      : PageStore(inner->page_size()), inner_(inner) {}

  PageId Allocate() override { return inner_->Allocate(); }
  Status Free(PageId id) override { return inner_->Free(id); }
  Status Read(PageId id, uint8_t* out) override {
    Park(/*writeback=*/false);
    return inner_->Read(id, out);
  }
  Status Write(PageId id, const uint8_t* in) override {
    return inner_->Write(id, in);
  }
  Status FlushDirtyBatch(const std::vector<PageWriteRequest>& reqs) override {
    Park(/*writeback=*/true);
    return inner_->FlushDirtyBatch(reqs);
  }
  size_t live_pages() const override { return inner_->live_pages(); }
  size_t allocated_slots() const override {
    return inner_->allocated_slots();
  }

  /// Closes the gate on reads or on batched write-backs.
  void Hold(bool writeback) {
    std::lock_guard lock(mu_);
    held_ = true;
    hold_writebacks_ = writeback;
  }
  /// Blocks until `n` I/Os are parked at the gate.
  void WaitParked(int n) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return parked_ >= n; });
  }
  int parked() {
    std::lock_guard lock(mu_);
    return parked_;
  }
  void Open() {
    std::lock_guard lock(mu_);
    held_ = false;
    cv_.notify_all();
  }

 private:
  void Park(bool writeback) {
    std::unique_lock lock(mu_);
    if (!held_ || writeback != hold_writebacks_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !held_; });
  }

  PageFile* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool hold_writebacks_ = false;
  int parked_ = 0;
};

TEST(BufferMissPathTest, CopyPageWaitsOutInFlightWriteback) {
  PageFile file(kPageSize);
  for (int i = 0; i < 4; ++i) file.Allocate();
  GatedStore store(&file);
  BufferPool pool(&store, /*capacity=*/1, /*shards=*/1);
  {
    auto res = pool.FetchPage(0);  // resident, dirty, within budget
    ASSERT_TRUE(res.ok());
    res.value()->data()[7] = 0xEE;
    pool.UnpinPage(0, /*dirty=*/true);
  }

  // A fresh page pushes dirty page 0 out; its write-back parks at the
  // gate with the disk still holding the stale image.
  store.Hold(/*writeback=*/true);
  std::thread evictor([&]() {
    Page* p = pool.NewPage();
    pool.UnpinPage(p->page_id(), /*dirty=*/false);
  });
  store.WaitParked(1);

  std::atomic<bool> copied{false};
  uint8_t buf[kPageSize] = {};
  std::thread copier([&]() {
    ASSERT_TRUE(pool.CopyPage(0, buf).ok());
    copied = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(copied.load()) << "CopyPage did not wait for the write-back";
  store.Open();
  copier.join();
  evictor.join();
  // Reading disk before the write-back landed would have copied 0x00.
  EXPECT_EQ(buf[7], 0xEE);
  ASSERT_TRUE(pool.FlushAll().ok());
}

TEST(BufferMissPathTest, CopyPageCoalescesOntoInFlightMiss) {
  PageFile file(kPageSize);
  for (int i = 0; i < 4; ++i) file.Allocate();
  {
    uint8_t img[kPageSize] = {};
    img[9] = 0xC3;
    ASSERT_TRUE(file.Write(2, img).ok());
  }
  GatedStore store(&file);
  BufferPool pool(&store, /*capacity=*/4, /*shards=*/1);

  // The first copy misses and parks its read at the gate; the others
  // arrive while that read is in flight and must wait for it, not read.
  store.Hold(/*writeback=*/false);
  constexpr int kCopiers = 4;
  std::vector<std::thread> copiers;
  std::atomic<int> good{0};
  for (int t = 0; t < kCopiers; ++t) {
    copiers.emplace_back([&]() {
      uint8_t buf[kPageSize] = {};
      if (pool.CopyPage(2, buf).ok() && buf[9] == 0xC3) good.fetch_add(1);
    });
    if (t == 0) store.WaitParked(1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(store.parked(), 1) << "a coalescing copy issued its own read";
  store.Open();
  for (auto& t : copiers) t.join();
  EXPECT_EQ(good.load(), kCopiers);
  EXPECT_EQ(file.io_stats().reads(), 1u);
  const BufferStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kCopiers - 1));
  // The miss path's transient pin is gone.
  auto res = pool.FetchPage(2);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->pin_count(), 1);
  pool.UnpinPage(2, false);
}

}  // namespace
}  // namespace burtree
