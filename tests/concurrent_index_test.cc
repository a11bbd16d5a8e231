#include "cc/concurrent_index.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>

#include "harness/experiment.h"

namespace burtree {
namespace {

struct ConcurrentWorld {
  explicit ConcurrentWorld(StrategyKind kind, uint64_t objects = 3000,
                           LatchMode latch_mode = LatchMode::kGlobal) {
    cfg.strategy = kind;
    cfg.workload.num_objects = objects;
    cfg.workload.seed = 31;
    workload = std::make_unique<WorkloadGenerator>(cfg.workload);
    fx = MakeFixture(cfg);
    BURTREE_CHECK(BuildIndex(cfg, *workload, &fx).ok());
    ConcurrencyOptions copts;
    copts.io_latency_us = 0;  // tests measure correctness, not tps
    copts.latch_mode = latch_mode;
    index = std::make_unique<ConcurrentIndex>(fx.system.get(),
                                              fx.strategy.get(),
                                              fx.executor.get(), copts);
  }
  ExperimentConfig cfg;
  std::unique_ptr<WorkloadGenerator> workload;
  StrategyFixture fx;
  std::unique_ptr<ConcurrentIndex> index;
};

class ConcurrentStrategyTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, LatchMode>> {
 protected:
  StrategyKind kind() const { return std::get<0>(GetParam()); }
  LatchMode latch_mode() const { return std::get<1>(GetParam()); }
};

TEST_P(ConcurrentStrategyTest, ParallelUpdatesKeepTreeConsistent) {
  ConcurrentWorld w(kind(), 3000, latch_mode());
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 300;
  const uint64_t n = w.cfg.workload.num_objects;

  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(1000 + t);
      const uint64_t lo = n * t / kThreads;
      const uint64_t hi = n * (t + 1) / kThreads;
      std::vector<Point> pos(
          w.workload->initial_positions().begin() + static_cast<long>(lo),
          w.workload->initial_positions().begin() + static_cast<long>(hi));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t k = rng.NextBelow(hi - lo);
        const Point from = pos[k];
        const Point to{rng.NextDouble(), rng.NextDouble()};
        if (!w.index->Update(lo + k, from, to).ok()) {
          ok = false;
          return;
        }
        pos[k] = to;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());
  EXPECT_TRUE(w.fx.system->tree().Validate().ok());
  // All objects still present exactly once.
  size_t count = 0;
  ASSERT_TRUE(w.fx.system->tree()
                  .Query(Rect(0, 0, 1, 1),
                         [&](ObjectId, const Rect&) { ++count; })
                  .ok());
  EXPECT_EQ(count, n);
}

TEST_P(ConcurrentStrategyTest, MixedReadersAndWriters) {
  ConcurrentWorld w(kind(), 3000, latch_mode());
  constexpr int kThreads = 8;
  const uint64_t n = w.cfg.workload.num_objects;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  std::atomic<uint64_t> query_matches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(2000 + t);
      const uint64_t lo = n * t / kThreads;
      const uint64_t hi = n * (t + 1) / kThreads;
      std::vector<Point> pos(
          w.workload->initial_positions().begin() + static_cast<long>(lo),
          w.workload->initial_positions().begin() + static_cast<long>(hi));
      for (int i = 0; i < 200; ++i) {
        if (rng.NextBool(0.5)) {
          const uint64_t k = rng.NextBelow(hi - lo);
          const Point to{rng.NextDouble(), rng.NextDouble()};
          if (!w.index->Update(lo + k, pos[k], to).ok()) {
            ok = false;
            return;
          }
          pos[k] = to;
        } else {
          auto m = w.index->Query(
              WorkloadGenerator::QueryWindowFrom(rng, 0.1));
          if (!m.ok()) {
            ok = false;
            return;
          }
          query_matches.fetch_add(m.value());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());
  EXPECT_TRUE(w.fx.system->tree().Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ConcurrentStrategyTest,
    ::testing::Combine(::testing::Values(StrategyKind::kTopDown,
                                         StrategyKind::kLocalizedBottomUp,
                                         StrategyKind::kGeneralizedBottomUp),
                       ::testing::Values(LatchMode::kGlobal,
                                         LatchMode::kCoupled)),
    [](const auto& info) {
      return std::string(StrategyName(std::get<0>(info.param))) + "_" +
             LatchModeName(std::get<1>(info.param));
    });

TEST(ConcurrentIndexTest, LatencyChargedPerIo) {
  ConcurrentWorld w(StrategyKind::kGeneralizedBottomUp, 500);
  ConcurrencyOptions copts;
  copts.io_latency_us = 2000;  // 2 ms per I/O: measurable
  ConcurrentIndex slow(w.fx.system.get(), w.fx.strategy.get(),
                       w.fx.executor.get(), copts);
  const Point from = w.workload->position(1);
  const Point to{from.x + 1e-12, from.y};
  Stopwatch sw;
  ASSERT_TRUE(slow.Update(1, from, to).ok());
  // The in-place path costs ~3 I/Os -> at least ~6 ms of simulated disk.
  EXPECT_GE(sw.ElapsedSeconds(), 0.004);
}

}  // namespace
}  // namespace burtree
