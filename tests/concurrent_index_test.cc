#include "cc/concurrent_index.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>

#include "concurrency_test_util.h"
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

// Forced re-insertion re-enters from the root, so it runs only where
// inserts are serialized: global mode force-reinserts on overflow, while
// coupled mode's latch-coupled descents always split.
TEST(ConcurrentIndexTest, CoupledInsertsSplitWhileGlobalInsertsReinsert) {
  constexpr uint64_t kObjects = 1000;
  constexpr uint64_t kInserts = 400;
  for (const LatchMode mode : {LatchMode::kGlobal, LatchMode::kCoupled}) {
    SCOPED_TRACE(LatchModeName(mode));
    ExperimentConfig cfg;
    cfg.strategy = StrategyKind::kGeneralizedBottomUp;
    cfg.page_size = 512;  // ~11 entries per leaf: the inserts overflow
    cfg.forced_reinsert = true;
    cfg.workload.num_objects = kObjects;
    cfg.workload.seed = 31;
    WorkloadGenerator workload(cfg.workload);
    StrategyFixture fx = MakeFixture(cfg);
    ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
    ConcurrencyOptions copts;
    copts.io_latency_us = 0;
    copts.latch_mode = mode;
    ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                          fx.executor.get(), copts);
    RTree& tree = fx.system->tree();

    // Deltas across the inserts only: the build itself force-reinserts.
    // Half the inserts go one by one, half through InsertBatch.
    const RTreeStats before = tree.stats();
    Rng rng(77);
    std::vector<Point> pos;
    std::vector<BatchInsertOp> batch;
    for (ObjectId i = 0; i < kInserts; ++i) {
      const ObjectId oid = kObjects + i;
      pos.push_back(Point{rng.NextDouble(), rng.NextDouble()});
      if (i < kInserts / 2) {
        ASSERT_TRUE(index.Insert(oid, pos.back()).ok());
        continue;
      }
      batch.push_back(BatchInsertOp{oid, pos.back(), Status::OK()});
      if (batch.size() == 20) {
        ASSERT_TRUE(index.InsertBatch(batch).ok());
        batch.clear();
      }
    }
    const RTreeStats after = tree.stats();

    EXPECT_GT(after.leaf_splits, before.leaf_splits);
    if (mode == LatchMode::kCoupled) {
      EXPECT_EQ(after.forced_reinserts, before.forced_reinserts);
      // Every insert ran the latch-coupled descent; none drained into
      // the serialized insert.
      EXPECT_EQ(index.latch_stats().coupled_inserts, kInserts);
      EXPECT_EQ(index.latch_stats().compound_smos, 0u);
    } else {
      EXPECT_GT(after.forced_reinserts, before.forced_reinserts);
    }
    EXPECT_TRUE(tree.Validate().ok());
    EXPECT_EQ(testutil::FullSpaceCount(tree), kObjects + kInserts);
    for (ObjectId i = 0; i < kInserts; ++i) {
      bool found = false;
      ASSERT_TRUE(tree.Query(Rect::FromPoint(pos[i]),
                             [&](ObjectId oid, const Rect&) {
                               found |= oid == kObjects + i;
                             })
                      .ok());
      EXPECT_TRUE(found) << "oid " << kObjects + i;
    }
  }
}

TEST(ConcurrentIndexTest, MutationsFailOnceTheWalFailed) {
  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.workload.num_objects = 500;
  cfg.workload.seed = 31;
  cfg.storage.wal.enabled = true;           // scratch log, removed on close
  cfg.storage.wal.checkpoint_log_bytes = 0;  // manual checkpoints only
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
  IndexSystem& sys = *fx.system;
  ConcurrentIndex index(&sys, fx.strategy.get(), fx.executor.get(),
                        ConcurrencyOptions{});

  // A checkpoint whose page sync fails ends durability for good.
  sys.wal()->SetCheckpointHooks(WalManager::CheckpointHooks{
      {}, {}, [] { return Status::IoError("fdatasync: EIO"); }, {}});
  ASSERT_FALSE(sys.Checkpoint().ok());
  const uint64_t records = sys.wal()->stats().records;

  const Point from = workload.position(1);
  const Point to{from.x + 0.01, from.y};
  EXPECT_EQ(index.Update(1, from, to).code(), StatusCode::kIoError);
  EXPECT_EQ(index.Insert(100000, to).code(), StatusCode::kIoError);
  EXPECT_EQ(index.Delete(1, from).code(), StatusCode::kIoError);
  std::vector<BatchUpdateOp> updates{{1, from, to, Status::OK()}};
  EXPECT_FALSE(index.UpdateBatch(updates).ok());
  EXPECT_EQ(updates[0].status.code(), StatusCode::kIoError);
  std::vector<BatchInsertOp> inserts{{100000, to, Status::OK()}};
  EXPECT_FALSE(index.InsertBatch(inserts).ok());
  EXPECT_EQ(inserts[0].status.code(), StatusCode::kIoError);

  // Nothing was mutated or logged, and queries still run.
  EXPECT_EQ(sys.wal()->stats().records, records);
  auto at_from = index.Query(Rect::FromPoint(from));
  ASSERT_TRUE(at_from.ok());
  EXPECT_GE(at_from.value(), 1u);
  auto at_to = index.Query(Rect::FromPoint(to));
  ASSERT_TRUE(at_to.ok());
  EXPECT_EQ(at_to.value(), 0u);
  EXPECT_TRUE(sys.tree().Validate().ok());
}

}  // namespace
}  // namespace burtree
