// Linearizability fuzz pack for the coupled latch mode's read path
// (optimistic version-validated snapshots, with the S-coupled descent as
// its fallback) across every update strategy, with forced re-insertion
// enabled so the coupled insert path exercises the eviction +
// reinsert-visibility-bracket machinery.
//
// Shape: seeded concurrent schedules of updates, inserts, and window
// queries; threads own disjoint oid ranges (both their preloaded objects
// and their freshly inserted ones), so the final logical state is
// determined by program order alone. Replaying each thread's recorded
// ops single-threaded on a twin fixture builds the reference; the
// concurrent index must answer a battery of windows with identical oid
// sets through the plain descent, the pruned optimistic protocol and the
// S-coupled fallback, conserve every object, and keep the oid
// index consistent. Mid-run, queries must simply never fail or observe
// a torn page (TSan + the bracket re-checks make a miss loud).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cc/latch_table.h"
#include "concurrency_test_util.h"

namespace burtree {
namespace {

struct RecordedOp {
  bool is_insert;
  ObjectId oid;
  Point from;  // updates only
  Point to;    // target position (updates) or insert position
};

template <typename Fn>
Status RetryAborted(Fn op) {
  for (;;) {
    const Status st = op();
    if (st.code() != StatusCode::kAborted) return st;
    std::this_thread::yield();
  }
}

class LinearizabilityFuzzTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(LinearizabilityFuzzTest, CoupledSchedulesMatchReferenceReplay) {
  const StrategyKind kind = GetParam();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  constexpr uint64_t kObjects = 600;
  constexpr uint64_t kInsertsPerThread = 30;
  constexpr uint64_t kSeeds[] = {11, 12, 13};

  uint64_t total_reinserts = 0;
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExperimentConfig cfg;
    cfg.strategy = kind;
    cfg.page_size = 512;  // moderate fanout: inserts split and evict
    cfg.forced_reinsert = true;
    cfg.workload.num_objects = kObjects;
    cfg.workload.seed = 2000 + seed;
    cfg.buffer_fraction = 0.2;
    WorkloadGenerator workload(cfg.workload);

    StrategyFixture fx = MakeFixture(cfg);
    ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());

    ConcurrencyOptions copts;
    copts.latch_mode = LatchMode::kCoupled;
    copts.io_latency_in_op = true;
    copts.io_latency_us = 15 + (seed % 4) * 45;  // per-seed delay injector
    ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                          fx.executor.get(), copts);

    std::vector<std::vector<RecordedOp>> recorded(kThreads);
    std::vector<std::thread> threads;
    std::atomic<bool> ok{true};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        Rng rng(seed * 1000 + static_cast<uint64_t>(t));
        const uint64_t lo = kObjects * t / kThreads;
        const uint64_t hi = kObjects * (t + 1) / kThreads;
        // Fresh oids for this thread's inserts, disjoint from every
        // range and contiguous across threads for the final audits.
        uint64_t next_insert =
            kObjects + kInsertsPerThread * static_cast<uint64_t>(t);
        const uint64_t insert_end =
            kObjects + kInsertsPerThread * static_cast<uint64_t>(t + 1);
        std::vector<Point> pos(
            workload.initial_positions().begin() + static_cast<long>(lo),
            workload.initial_positions().begin() + static_cast<long>(hi));
        for (int i = 0; i < kOpsPerThread; ++i) {
          const double dice = rng.NextDouble();
          if (dice < 0.2 && next_insert < insert_end) {
            const Point p{rng.NextDouble(), rng.NextDouble()};
            const ObjectId oid = next_insert++;
            if (!RetryAborted([&] { return index.Insert(oid, p); }).ok()) {
              ok = false;
              return;
            }
            recorded[t].push_back(RecordedOp{true, oid, p, p});
          } else if (dice < 0.75) {
            const uint64_t k = rng.NextBelow(hi - lo);
            const Point to =
                rng.NextBool(0.5)
                    ? Point{rng.NextDouble(), rng.NextDouble()}
                    : Point{std::min(1.0,
                                     pos[k].x + rng.NextDouble() * 0.01),
                            std::min(1.0,
                                     pos[k].y + rng.NextDouble() * 0.01)};
            if (!RetryAborted([&] { return index.Update(lo + k, pos[k], to); })
                     .ok()) {
              ok = false;
              return;
            }
            recorded[t].push_back(RecordedOp{false, lo + k, pos[k], to});
            pos[k] = to;
          } else {
            const Rect w = WorkloadGenerator::QueryWindowFrom(rng, 0.05);
            if (!RetryAborted([&] { return index.Query(w).status(); }).ok()) {
              ok = false;
              return;
            }
          }
        }
        // Drain the insert quota so the final oid space is contiguous
        // regardless of how the dice fell.
        while (next_insert < insert_end) {
          const Point p{rng.NextDouble(), rng.NextDouble()};
          const ObjectId oid = next_insert++;
          if (!RetryAborted([&] { return index.Insert(oid, p); }).ok()) {
            ok = false;
            return;
          }
          recorded[t].push_back(RecordedOp{true, oid, p, p});
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_TRUE(ok.load());

    // Single-thread reference: replay each thread's ops in program order.
    StrategyFixture ref = MakeFixture(cfg);
    ASSERT_TRUE(BuildIndex(cfg, workload, &ref).ok());
    for (const auto& thread_ops : recorded) {
      for (const RecordedOp& op : thread_ops) {
        if (op.is_insert) {
          ASSERT_TRUE(ref.system->Insert(op.oid, op.to).ok());
        } else {
          ASSERT_TRUE(ref.strategy->Update(op.oid, op.from, op.to).ok());
        }
      }
    }

    // Equivalence through every read path: the plain executor descent,
    // the pruned optimistic protocol and the S-coupled fallback
    // (quiesced, so a private latch table serves the snapshots and the
    // shared latches) must each produce the reference's oid set for
    // every window.
    LatchTable qtable(256);
    OptimisticReaderHooks hooks(&qtable);
    Rng qrng(seed * 31 + 7);
    for (int q = 0; q < 25; ++q) {
      const Rect w = WorkloadGenerator::QueryWindowFrom(qrng, 0.25);
      std::vector<ObjectId> got, got_opt, got_coupled, want;
      ASSERT_TRUE(fx.executor
                      ->Query(w, [&](ObjectId oid,
                                     const Rect&) { got.push_back(oid); })
                      .ok());
      ASSERT_TRUE(fx.executor
                      ->QueryOptimistic(
                          w, &hooks,
                          [&](ObjectId oid, const Rect&) {
                            got_opt.push_back(oid);
                          },
                          /*pruned=*/true)
                      .ok());
      {
        PageLatchSet latches(&qtable);
        ReaderHooks reader(&latches);
        ASSERT_TRUE(fx.system->tree()
                        .QueryCoupled(w,
                                      [&](ObjectId oid, const Rect&) {
                                        got_coupled.push_back(oid);
                                      },
                                      &reader)
                        .ok());
      }
      ASSERT_TRUE(ref.executor
                      ->Query(w, [&](ObjectId oid,
                                     const Rect&) { want.push_back(oid); })
                      .ok());
      std::sort(got.begin(), got.end());
      std::sort(got_opt.begin(), got_opt.end());
      std::sort(got_coupled.begin(), got_coupled.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "window " << q;
      EXPECT_EQ(got_opt, want) << "window " << q << " (optimistic)";
      EXPECT_EQ(got_coupled, want) << "window " << q << " (S-coupled)";
    }

    const uint64_t total =
        kObjects + kInsertsPerThread * static_cast<uint64_t>(kThreads);
    EXPECT_TRUE(fx.system->tree().Validate().ok());
    EXPECT_EQ(testutil::FullSpaceCount(*fx.system), total);
    if (kind != StrategyKind::kTopDown) {
      testutil::ExpectOidIndexConsistent(*fx.system, total);
    }
    EXPECT_GT(index.latch_stats().optimistic_queries, 0u);
    total_reinserts += index.latch_stats().coupled_reinserts;
  }
  // The inserts run with forced re-insertion enabled; across the seeds
  // the eviction + visibility-bracket machinery must actually fire (a
  // grid that never evicts would prove nothing about the bracket).
  EXPECT_GT(total_reinserts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Grid, LinearizabilityFuzzTest,
                         ::testing::Values(StrategyKind::kTopDown,
                                           StrategyKind::kLocalizedBottomUp,
                                           StrategyKind::kGeneralizedBottomUp),
                         [](const auto& info) {
                           return std::string(StrategyName(info.param));
                         });

}  // namespace
}  // namespace burtree
