#include "cc/dgl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"

namespace burtree {
namespace {

TEST(SpatialGranulesTest, CellOfMapsIntoGrid) {
  SpatialGranules g(3);  // 8x8
  EXPECT_EQ(g.grid_size(), 8u);
  EXPECT_EQ(g.CellOf(Point{0.0, 0.0}), 0u);
  EXPECT_EQ(g.CellOf(Point{0.99, 0.0}), 7u);
  EXPECT_EQ(g.CellOf(Point{0.0, 0.99}), 56u);
  EXPECT_EQ(g.CellOf(Point{0.99, 0.99}), 63u);
  // Out-of-range coordinates clamp to border cells.
  EXPECT_EQ(g.CellOf(Point{-1.0, 0.0}), 0u);
  EXPECT_EQ(g.CellOf(Point{2.0, 2.0}), 63u);
}

TEST(SpatialGranulesTest, CellsOfWindowCoversAndIsSorted) {
  SpatialGranules g(3);
  const Rect w(0.1, 0.1, 0.4, 0.3);  // cells x 0..3, y 0..2
  auto cells = g.CellsOf(w);
  EXPECT_EQ(cells.size(), 4u * 3u);
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end()));
  // The cell of every corner is included.
  for (const Point& p : {Point{0.1, 0.1}, Point{0.4, 0.1}, Point{0.1, 0.3},
                         Point{0.4, 0.3}}) {
    EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(), g.CellOf(p)));
  }
}

TEST(SpatialGranulesTest, EmptyWindowHasNoCells) {
  SpatialGranules g(3);
  EXPECT_TRUE(g.CellsOf(Rect::Empty()).empty());
}

TEST(DglProtocolTest, UpdateLocksBothCellsExclusive) {
  LockManager lm;
  SpatialGranules g(4);
  ASSERT_TRUE(AcquireUpdateLocks(&lm, g, 1, Point{0.1, 0.1},
                                 Point{0.9, 0.9})
                  .ok());
  // root intent + two cells
  EXPECT_EQ(lm.HeldCount(1), 3u);
  // A query over the destination cell must block (timeout-abort here).
  LockManagerOptions fast;
  fast.timeout_ms = 30;
  LockManager lm2(fast);
  ASSERT_TRUE(AcquireUpdateLocks(&lm2, g, 1, Point{0.1, 0.1},
                                 Point{0.9, 0.9})
                  .ok());
  EXPECT_FALSE(
      AcquireQueryLocks(&lm2, g, 2, Rect(0.85, 0.85, 0.95, 0.95)).ok());
}

TEST(DglProtocolTest, SameCellUpdateLocksOnce) {
  LockManager lm;
  SpatialGranules g(4);
  ASSERT_TRUE(AcquireUpdateLocks(&lm, g, 1, Point{0.51, 0.51},
                                 Point{0.52, 0.52})
                  .ok());
  EXPECT_EQ(lm.HeldCount(1), 2u);  // root + one cell
}

TEST(DglProtocolTest, DisjointRegionsDoNotConflict) {
  LockManager lm;
  SpatialGranules g(4);
  ASSERT_TRUE(AcquireUpdateLocks(&lm, g, 1, Point{0.1, 0.1},
                                 Point{0.15, 0.15})
                  .ok());
  ASSERT_TRUE(
      AcquireQueryLocks(&lm, g, 2, Rect(0.7, 0.7, 0.9, 0.9)).ok());
  ASSERT_TRUE(AcquireUpdateLocks(&lm, g, 3, Point{0.4, 0.4},
                                 Point{0.45, 0.45})
                  .ok());
}

TEST(DglProtocolTest, QueriesShareCells) {
  LockManager lm;
  SpatialGranules g(4);
  ASSERT_TRUE(AcquireQueryLocks(&lm, g, 1, Rect(0.2, 0.2, 0.6, 0.6)).ok());
  ASSERT_TRUE(AcquireQueryLocks(&lm, g, 2, Rect(0.2, 0.2, 0.6, 0.6)).ok());
}

TEST(DglProtocolTest, PhantomProtection) {
  // A query holding its window's cells blocks any update that would move
  // an object INTO the window — DGL's phantom-protection property.
  LockManagerOptions fast;
  fast.timeout_ms = 30;
  LockManager lm(fast);
  SpatialGranules g(4);
  ASSERT_TRUE(AcquireQueryLocks(&lm, g, 1, Rect(0.4, 0.4, 0.6, 0.6)).ok());
  EXPECT_FALSE(AcquireUpdateLocks(&lm, g, 2, Point{0.9, 0.9},
                                  Point{0.5, 0.5})
                   .ok());
  // ... but an update wholly outside proceeds.
  EXPECT_TRUE(AcquireUpdateLocks(&lm, g, 3, Point{0.9, 0.9},
                                 Point{0.95, 0.95})
                  .ok());
}

TEST(DglProtocolTest, InsertLocksDestinationCell) {
  LockManager lm;
  SpatialGranules g(4);
  ASSERT_TRUE(AcquireInsertLocks(&lm, g, 1, Point{0.3, 0.3}).ok());
  EXPECT_EQ(lm.HeldCount(1), 2u);  // root intent + the destination cell
  // Phantom protection: a query over the cell must block.
  LockManagerOptions fast;
  fast.timeout_ms = 30;
  LockManager lm2(fast);
  ASSERT_TRUE(AcquireInsertLocks(&lm2, g, 1, Point{0.3, 0.3}).ok());
  EXPECT_FALSE(
      AcquireQueryLocks(&lm2, g, 2, Rect(0.25, 0.25, 0.35, 0.35)).ok());
}

// ---------------------------------------------------------------------------
// Striped lock-manager tests: the single global mutex is gone; granules
// hash across per-bucket mutex/cv/map triples.
// ---------------------------------------------------------------------------

TEST(LockManagerStripingTest, GranulesSpreadAcrossBuckets) {
  LockManagerOptions opts;
  opts.buckets = 64;
  LockManager lm(opts);
  EXPECT_EQ(lm.bucket_count(), 64u);
  std::vector<int> hits(lm.bucket_count(), 0);
  for (uint64_t g = 0; g < 4096; ++g) ++hits[lm.BucketOf(g)];
  // Dense grid granules must not collapse onto few buckets.
  int used = 0;
  for (int h : hits) used += h > 0 ? 1 : 0;
  EXPECT_EQ(used, 64);
}

TEST(LockManagerStripingTest, NoLostLocksAcrossBuckets) {
  // 8 threads, each acquiring a txn-private granule set spanning many
  // buckets, verifying the held-set bookkeeping and that ReleaseAll
  // frees every bucket (a fresh X acquisition succeeds everywhere).
  LockManager lm;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerTxn = 64;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 50; ++round) {
        const uint64_t txn = 1 + static_cast<uint64_t>(t) * 1000 + round;
        for (uint64_t i = 0; i < kPerTxn; ++i) {
          // Granules disjoint per thread: no conflicts, pure bookkeeping.
          const uint64_t granule = static_cast<uint64_t>(t) * 100000 + i;
          if (!lm.Acquire(txn, granule, LockMode::kX).ok()) {
            ok = false;
            return;
          }
        }
        if (lm.HeldCount(txn) != kPerTxn) {
          ok = false;
          return;
        }
        lm.ReleaseAll(txn);
        if (lm.HeldCount(txn) != 0) {
          ok = false;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());
  // Every granule is free again: a single txn can X-lock all of them.
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerTxn; ++i) {
      EXPECT_TRUE(
          lm.Acquire(999999, static_cast<uint64_t>(t) * 100000 + i,
                     LockMode::kX)
              .ok());
    }
  }
  lm.ReleaseAll(999999);
  EXPECT_EQ(lm.stats().aborts, 0u);
}

TEST(LockManagerStripingTest, DeterministicOrderPreventsDeadlock) {
  // Threads repeatedly take overlapping DGL-style lock sets (root intent
  // first, then cells ascending). The sets conflict heavily and span
  // many buckets; the deterministic order must keep every acquisition
  // free of deadlock — a timeout here is the failure signal.
  LockManagerOptions opts;
  opts.timeout_ms = 10000;
  LockManager lm(opts);
  SpatialGranules g(5);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(500 + t);
      for (int i = 0; i < 200 && ok; ++i) {
        const uint64_t txn = 1 + static_cast<uint64_t>(t) * 10000 + i;
        Status s;
        if (i % 2 == 0) {
          // Overlapping windows around the center: shared cells.
          const double x = 0.4 + rng.NextDouble() * 0.1;
          const double y = 0.4 + rng.NextDouble() * 0.1;
          s = AcquireQueryLocks(&lm, g, txn,
                                Rect(x, y, x + 0.1, y + 0.1));
        } else {
          s = AcquireUpdateLocks(
              &lm, g, txn,
              Point{0.45 + rng.NextDouble() * 0.1,
                    0.45 + rng.NextDouble() * 0.1},
              Point{rng.NextDouble(), rng.NextDouble()});
        }
        if (!s.ok()) ok = false;
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(lm.stats().aborts, 0u);
}

}  // namespace
}  // namespace burtree
