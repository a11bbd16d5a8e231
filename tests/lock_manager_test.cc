#include "cc/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace burtree {
namespace {

TEST(LockCompatibilityTest, MatrixIsStandard) {
  using M = LockMode;
  // IS compatible with everything but X.
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIS));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIX));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kIS, M::kX));
  // IX compatible with IS/IX only.
  EXPECT_TRUE(LockCompatible(M::kIX, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kIX, M::kS));
  EXPECT_FALSE(LockCompatible(M::kIX, M::kX));
  // S compatible with IS/S.
  EXPECT_TRUE(LockCompatible(M::kS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kS, M::kIX));
  // X compatible with nothing.
  EXPECT_FALSE(LockCompatible(M::kX, M::kIS));
  EXPECT_FALSE(LockCompatible(M::kX, M::kX));
}

TEST(LockManagerTest, GrantAndRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kX).ok());
  EXPECT_EQ(lm.HeldCount(1), 1u);
  lm.Release(1, 100);
  EXPECT_EQ(lm.HeldCount(1), 0u);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, 100, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(3, 100, LockMode::kIS).ok());
  EXPECT_EQ(lm.stats().acquisitions, 3u);
}

TEST(LockManagerTest, ReacquireSameModeIsIdempotent) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kS).ok());  // covered by X
  EXPECT_EQ(lm.HeldCount(1), 1u);
}

TEST(LockManagerTest, ConflictBlocksUntilRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kX).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&]() {
    ASSERT_TRUE(lm.Acquire(2, 100, LockMode::kX).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());
  lm.Release(1, 100);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_GE(lm.stats().waits, 1u);
}

TEST(LockManagerTest, TimeoutAborts) {
  LockManagerOptions opts;
  opts.timeout_ms = 50;
  LockManager lm(opts);
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kX).ok());
  const Status s = lm.Acquire(2, 100, LockMode::kS);
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_GE(lm.stats().aborts, 1u);
}

TEST(LockManagerTest, ReleaseAllDropsEverything) {
  LockManager lm;
  for (uint64_t g = 0; g < 10; ++g) {
    ASSERT_TRUE(lm.Acquire(1, g, LockMode::kS).ok());
  }
  EXPECT_EQ(lm.HeldCount(1), 10u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldCount(1), 0u);
  ASSERT_TRUE(lm.Acquire(2, 5, LockMode::kX).ok());
}

TEST(LockManagerTest, UpgradeFromIntentToExclusive) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kIX).ok());
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kX).ok());  // self-upgrade
  EXPECT_EQ(lm.HeldCount(1), 1u);
  // Another txn is blocked by the upgraded X.
  LockManagerOptions fast;
  (void)fast;
  std::atomic<bool> granted{false};
  std::thread t([&]() {
    ASSERT_TRUE(lm.Acquire(2, 100, LockMode::kIS).ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1);
  t.join();
}

TEST(LockManagerTest, StressManyThreadsDisjointGranules) {
  LockManager lm;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> ops{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 2000; ++i) {
        const uint64_t g = t * 1000 + (i % 100);
        ASSERT_TRUE(lm.Acquire(t + 1, g, LockMode::kX).ok());
        lm.Release(t + 1, g);
        ops.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ops.load(), 16000u);
}

TEST(LockManagerTest, StressContendedCounter) {
  // X-lock a single granule from many threads incrementing a counter:
  // the lock must serialize the increments perfectly.
  LockManager lm;
  uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(lm.Acquire(t + 1, 42, LockMode::kX).ok());
        ++counter;  // protected by the X lock
        lm.Release(t + 1, 42);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 4000u);
}

}  // namespace
}  // namespace burtree
