// Linearizability fuzz pack for the coupled latch mode's two read paths
// (S-latched and optimistic version-validated) across every update
// strategy, with forced re-insertion enabled so the coupled insert path
// exercises the eviction + reinsert-visibility-bracket machinery.
//
// Shape: seeded concurrent schedules of updates, inserts, and window
// queries; threads own disjoint oid ranges (both their preloaded objects
// and their freshly inserted ones), so the final logical state is
// determined by program order alone. Replaying each thread's recorded
// ops single-threaded on a twin fixture builds the reference; the
// concurrent index must answer a battery of windows with identical oid
// sets through BOTH read paths, conserve every object, and keep the oid
// index consistent. Mid-run, queries must simply never fail or observe
// a torn page (TSan + the bracket re-checks make a miss loud).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
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

/// VersionLatchHooks over a private table — valid for quiesced scans.
class TableHooks final : public VersionLatchHooks {
 public:
  explicit TableHooks(LatchTable* table) : table_(table) {}
  bool TryBeginSnapshot(PageId page, uint64_t* v) override {
    return table_->TryBeginSnapshot(page, v);
  }
  void EndSnapshot(PageId page) override { table_->EndSnapshot(page); }
  bool Validate(PageId page, uint64_t v) override {
    return table_->ValidateVersion(page, v);
  }

 private:
  LatchTable* table_;
};

class LinearizabilityFuzzTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, ReadMode>> {
};

TEST_P(LinearizabilityFuzzTest, CoupledSchedulesMatchReferenceReplay) {
  const auto [kind, read_mode] = GetParam();
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
    copts.read_mode = read_mode;
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

    // Equivalence through BOTH read paths: the plain executor descent
    // and the pruned optimistic protocol (quiesced, so a private latch
    // table serves the snapshots) must each produce the reference's oid
    // set for every window.
    LatchTable qtable(256);
    TableHooks hooks(&qtable);
    Rng qrng(seed * 31 + 7);
    for (int q = 0; q < 25; ++q) {
      const Rect w = WorkloadGenerator::QueryWindowFrom(qrng, 0.25);
      std::vector<ObjectId> got, got_opt, want;
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
      ASSERT_TRUE(ref.executor
                      ->Query(w, [&](ObjectId oid,
                                     const Rect&) { want.push_back(oid); })
                      .ok());
      std::sort(got.begin(), got.end());
      std::sort(got_opt.begin(), got_opt.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "window " << q;
      EXPECT_EQ(got_opt, want) << "window " << q << " (optimistic)";
    }

    const uint64_t total =
        kObjects + kInsertsPerThread * static_cast<uint64_t>(kThreads);
    EXPECT_TRUE(fx.system->tree().Validate().ok());
    EXPECT_EQ(testutil::FullSpaceCount(*fx.system), total);
    if (kind != StrategyKind::kTopDown) {
      testutil::ExpectOidIndexConsistent(*fx.system, total);
    }
    if (read_mode == ReadMode::kOptimistic) {
      EXPECT_GT(index.latch_stats().optimistic_queries, 0u);
    }
    total_reinserts += index.latch_stats().coupled_reinserts;
  }
  // The inserts run with forced re-insertion enabled; across the seeds
  // the eviction + visibility-bracket machinery must actually fire (a
  // grid that never evicts would prove nothing about the bracket).
  EXPECT_GT(total_reinserts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LinearizabilityFuzzTest,
    ::testing::Combine(::testing::Values(StrategyKind::kTopDown,
                                         StrategyKind::kLocalizedBottomUp,
                                         StrategyKind::kGeneralizedBottomUp),
                       ::testing::Values(ReadMode::kLatched,
                                         ReadMode::kOptimistic)),
    [](const auto& info) {
      return std::string(StrategyName(std::get<0>(info.param))) + "_" +
             ReadModeName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace burtree
