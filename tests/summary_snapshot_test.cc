// Summary-snapshot staleness pack: the pruned, epoch-validated
// optimistic query plan must stay correct while an 8-thread insert storm
// splits leaves and parents out from under it, and pruning must be
// doing real work (measurably fewer page reads than a full descent).
//
// The storm inserts only into x,y >= 0.6 while every probe window lies
// in x,y <= 0.4, so each probe's ground-truth oid set is constant for
// the whole run: any deviation mid-storm means a stale plan slipped
// past the epoch validation (or a torn snapshot slipped past the
// version stamps). Writers and readers share one LatchTable, exactly
// like the cc layer wires it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cc/latch_table.h"
#include "concurrency_test_util.h"

namespace burtree {
namespace {

TEST(SummarySnapshotTest, PrunedOptimisticStaysCorrectUnderSplitStorm) {
  constexpr uint64_t kObjects = 3000;
  constexpr int kWriters = 8;
  constexpr uint64_t kInsertsPerWriter = 250;

  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.page_size = 512;
  cfg.buffer_fraction = 0.01;  // tiny pool: page reads stay visible
  cfg.workload.num_objects = kObjects;
  cfg.workload.seed = 77;
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
  RTree& tree = fx.system->tree();
  ASSERT_GE(tree.root_level(), 2) << "need levels for pruning to skip";

  const std::vector<Rect> probes{
      Rect(0.02, 0.02, 0.22, 0.22), Rect(0.15, 0.10, 0.35, 0.30),
      Rect(0.05, 0.20, 0.25, 0.40)};
  std::vector<std::vector<ObjectId>> truth(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(fx.executor
                    ->Query(probes[i],
                            [&](ObjectId oid, const Rect&) {
                              truth[i].push_back(oid);
                            })
                    .ok());
    std::sort(truth[i].begin(), truth[i].end());
    ASSERT_FALSE(truth[i].empty());
  }
  const uint64_t splits_before = tree.stats().leaf_splits;

  LatchTable table;  // shared by writers and optimistic readers
  std::atomic<bool> storm_done{false};
  std::atomic<bool> writer_failed{false};
  std::atomic<bool> mismatch{false};
  std::atomic<uint64_t> consistent_reads{0};
  // The storm starts once both readers run: on a loaded host the eight
  // writers could otherwise finish before a reader completes one read.
  std::atomic<int> readers_running{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t]() {
      while (readers_running.load() < 2) std::this_thread::yield();
      Rng rng(900 + static_cast<uint64_t>(t));
      for (uint64_t j = 0; j < kInsertsPerWriter; ++j) {
        const ObjectId oid = 100000 + kInsertsPerWriter *
                                          static_cast<uint64_t>(t) + j;
        // Far from every probe window: ground truth stays frozen.
        const Rect r = IndexSystem::PointRect(
            Point{0.6 + rng.NextDouble() * 0.35,
                  0.6 + rng.NextDouble() * 0.35});
        for (;;) {
          PageLatchSet latches(&table);
          CoupledWriterHooks hooks(&latches);
          const Status st = tree.InsertCoupled(oid, r, &hooks);
          if (st.ok()) break;
          if (st.code() != StatusCode::kLatchContention) {
            writer_failed = true;
            return;
          }
          latches.ReleaseAll();
          std::this_thread::yield();
        }
      }
    });
  }
  // Two optimistic readers hammer the pruned plan throughout the storm.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {
      readers_running.fetch_add(1);
      OptimisticReaderHooks hooks(&table);
      size_t i = static_cast<size_t>(t);
      while (!storm_done.load(std::memory_order_acquire)) {
        const size_t p = i++ % probes.size();
        std::vector<ObjectId> got;
        const auto result = fx.executor->QueryOptimistic(
            probes[p], &hooks,
            [&](ObjectId oid, const Rect&) { got.push_back(oid); },
            /*pruned=*/true);
        if (!result.ok()) {
          // Stale plan or starved snapshots: legal, retry.
          continue;
        }
        std::sort(got.begin(), got.end());
        if (got != truth[p]) mismatch = true;
        consistent_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  storm_done = true;
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  ASSERT_FALSE(writer_failed.load());
  EXPECT_FALSE(mismatch.load()) << "pruned optimistic read saw a stale set";
  EXPECT_GT(consistent_reads.load(), 0u);
  // The storm must actually have been a split storm.
  EXPECT_GT(tree.stats().leaf_splits, splits_before);
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(testutil::FullSpaceCount(*fx.system),
            kObjects + static_cast<uint64_t>(kWriters) * kInsertsPerWriter);

  // Quiesced: pruned and unpruned scans agree on oid sets, and pruning
  // measurably reduces page reads (the whole point of carrying the
  // summary snapshot into the concurrent read paths).
  OptimisticReaderHooks hooks(&table);
  Rng qrng(4242);
  uint64_t pruned_io = 0, full_io = 0;
  for (int q = 0; q < 20; ++q) {
    const Rect w = WorkloadGenerator::QueryWindowFrom(qrng, 0.2);
    std::vector<ObjectId> full, pruned;
    PageStore::ResetThreadIo();
    ASSERT_TRUE(tree.Query(w, [&](ObjectId oid, const Rect&) {
                      full.push_back(oid);
                    }).ok());
    full_io += PageStore::thread_io();
    PageStore::ResetThreadIo();
    ASSERT_TRUE(fx.executor
                    ->QueryOptimistic(
                        w, &hooks,
                        [&](ObjectId oid, const Rect&) {
                          pruned.push_back(oid);
                        },
                        /*pruned=*/true)
                    .ok());
    pruned_io += PageStore::thread_io();
    std::sort(full.begin(), full.end());
    std::sort(pruned.begin(), pruned.end());
    EXPECT_EQ(pruned, full) << "window " << q;
  }
  EXPECT_LT(pruned_io, full_io)
      << "summary pruning did not reduce query page reads";
}

}  // namespace
}  // namespace burtree
