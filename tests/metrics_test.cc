#include "common/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace burtree {
namespace {

TEST(IoStatsTest, CountsReadsAndWrites) {
  IoStats s;
  s.RecordRead();
  s.RecordRead();
  s.RecordWrite();
  EXPECT_EQ(s.reads(), 2u);
  EXPECT_EQ(s.writes(), 1u);
  EXPECT_EQ(s.total_io(), 3u);
}

TEST(IoStatsTest, Reset) {
  IoStats s;
  s.RecordRead();
  s.Reset();
  EXPECT_EQ(s.total_io(), 0u);
}

TEST(IoStatsTest, ThreadSafeCounting) {
  IoStats s;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&s]() {
      for (int i = 0; i < 10000; ++i) s.RecordRead();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.reads(), 80000u);
}

TEST(IoSnapshotTest, DifferenceSemantics) {
  IoStats s;
  s.RecordRead();
  auto a = IoSnapshot::Take(s);
  s.RecordRead();
  s.RecordWrite();
  auto b = IoSnapshot::Take(s);
  auto d = b - a;
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.writes, 1u);
  EXPECT_EQ(d.total_io(), 2u);
}

TEST(BufferStatsTest, AccumulateAndHitRate) {
  BufferStats a{8, 2, 1, 1};
  BufferStats b{2, 8, 3, 2};
  a += b;
  EXPECT_EQ(a.hits, 10u);
  EXPECT_EQ(a.misses, 10u);
  EXPECT_EQ(a.evictions, 4u);
  EXPECT_EQ(a.flushes, 3u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(BufferStats{}.hit_rate(), 0.0);
  EXPECT_NE(a.ToString().find("hits=10"), std::string::npos);
}

TEST(BufferPoolStatsTest, TotalsAndImbalance) {
  BufferPoolStats ps;
  ps.shards.push_back(BufferStats{30, 10, 0, 0});
  ps.shards.push_back(BufferStats{15, 5, 0, 0});
  const BufferStats t = ps.total();
  EXPECT_EQ(t.hits, 45u);
  EXPECT_EQ(t.misses, 15u);
  // Touches: 40 vs 20; mean 30 -> imbalance 40/30.
  EXPECT_NEAR(ps.imbalance(), 40.0 / 30.0, 1e-9);
  EXPECT_DOUBLE_EQ(BufferPoolStats{}.imbalance(), 1.0);
  EXPECT_NE(ps.ToString().find("shards=2"), std::string::npos);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double t = sw.ElapsedSeconds();
  EXPECT_GE(t, 0.005);
  EXPECT_LT(t, 5.0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 0.5);
}

}  // namespace
}  // namespace burtree
