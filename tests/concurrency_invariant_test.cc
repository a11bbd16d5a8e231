// Tree-invariant coverage under concurrency (both latch modes), plus the
// regression pin for the global latch mode's operation semantics.
//
// The stress tests drive N threads of mixed updates and window queries
// through ConcurrentIndex and then audit the full invariant set:
//   * RTree::Validate — MBR containment (covering rects bound entries,
//     routing entries bound child covers), level consistency, fill
//     bounds, parent pointers where enabled;
//   * oid-index consistency — every object's hash entry points at the
//     leaf that physically holds its data entry (a desync here is how a
//     lost latch would corrupt bottom-up updates);
//   * summary self-check + fullness bits (GBU);
//   * no object lost or duplicated (full-space query count).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "concurrency_test_util.h"
#include "harness/experiment.h"

namespace burtree {
namespace {

using testutil::ExpectOidIndexConsistent;

class InvariantStressTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, LatchMode>> {
};

TEST_P(InvariantStressTest, UpdateQueryStressKeepsInvariants) {
  const auto [kind, mode] = GetParam();
  ExperimentConfig cfg;
  cfg.strategy = kind;
  cfg.workload.num_objects = 4000;
  cfg.workload.seed = 77;
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());

  ConcurrencyOptions copts;
  copts.io_latency_us = 0;
  copts.latch_mode = mode;
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 250;
  const uint64_t n = cfg.workload.num_objects;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(5000 + t);
      const uint64_t lo = n * t / kThreads;
      const uint64_t hi = n * (t + 1) / kThreads;
      std::vector<Point> pos(
          workload.initial_positions().begin() + static_cast<long>(lo),
          workload.initial_positions().begin() + static_cast<long>(hi));
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.NextBool(0.7)) {
          const uint64_t k = rng.NextBelow(hi - lo);
          // Mix short hops (leaf-local arms) with global jumps
          // (escalation arms) so both latch paths run.
          Point to;
          if (rng.NextBool(0.5)) {
            to = Point{rng.NextDouble(), rng.NextDouble()};
          } else {
            to = Point{std::min(1.0, pos[k].x + rng.NextDouble() * 0.01),
                       std::min(1.0, pos[k].y + rng.NextDouble() * 0.01)};
          }
          if (!index.Update(lo + k, pos[k], to).ok()) {
            ok = false;
            return;
          }
          pos[k] = to;
        } else {
          if (!index.Query(WorkloadGenerator::QueryWindowFrom(rng, 0.05))
                   .ok()) {
            ok = false;
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());

  // Invariant audit.
  IndexSystem& sys = *fx.system;
  EXPECT_TRUE(sys.tree().Validate().ok());
  if (kind != StrategyKind::kTopDown) {
    ExpectOidIndexConsistent(sys, n);
  }
  if (sys.summary() != nullptr) {
    EXPECT_TRUE(sys.summary()->SelfCheck());
  }
  size_t count = 0;
  ASSERT_TRUE(sys.tree()
                  .Query(Rect(0, 0, 1, 1),
                         [&](ObjectId, const Rect&) { ++count; })
                  .ok());
  EXPECT_EQ(count, n);  // nothing lost, nothing duplicated

  if (mode == LatchMode::kCoupled && kind != StrategyKind::kTopDown) {
    // The workload's short hops must actually exercise the scoped path.
    EXPECT_GT(index.latch_stats().scoped_updates, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, InvariantStressTest,
    ::testing::Combine(::testing::Values(StrategyKind::kTopDown,
                                         StrategyKind::kLocalizedBottomUp,
                                         StrategyKind::kGeneralizedBottomUp),
                       ::testing::Values(LatchMode::kGlobal,
                                         LatchMode::kCoupled)),
    [](const auto& info) {
      return std::string(StrategyName(std::get<0>(info.param))) + "_" +
             LatchModeName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Global-mode regression pin: with one thread, the ConcurrentIndex
// pipeline in global latch mode must be observationally identical to
// driving the strategy and executor directly — same statuses, same
// decision-ladder arms, same disk-access counts, same query answers.
// This pins the paper's single-latch DGL baseline.
// ---------------------------------------------------------------------------

TEST(GlobalLatchModeRegressionTest, SingleThreadPipelineMatchesDirectRun) {
  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.workload.num_objects = 2500;
  cfg.workload.seed = 13;

  // Twin fixtures built identically.
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture direct = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &direct).ok());
  StrategyFixture piped = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &piped).ok());

  ConcurrencyOptions copts;
  copts.io_latency_us = 0;
  copts.latch_mode = LatchMode::kGlobal;
  ConcurrentIndex index(piped.system.get(), piped.strategy.get(),
                        piped.executor.get(), copts);

  const auto dio0 = direct.system->SnapshotIo();
  const auto pio0 = piped.system->SnapshotIo();

  WorkloadGenerator direct_ops(cfg.workload);
  WorkloadGenerator piped_ops(cfg.workload);
  for (int i = 0; i < 1500; ++i) {
    const auto a = direct_ops.NextUpdate();
    const auto b = piped_ops.NextUpdate();
    ASSERT_EQ(a.oid, b.oid);
    auto ra = direct.strategy->Update(a.oid, a.from, a.to);
    auto rb = index.Update(b.oid, b.from, b.to);
    ASSERT_EQ(ra.status().code(), rb.code()) << "op " << i;
  }

  // Identical decision-ladder outcomes...
  const UpdatePathCounts da = direct.strategy->path_counts();
  const UpdatePathCounts db = piped.strategy->path_counts();
  EXPECT_EQ(da.in_place, db.in_place);
  EXPECT_EQ(da.extend, db.extend);
  EXPECT_EQ(da.sibling, db.sibling);
  EXPECT_EQ(da.ascend, db.ascend);
  EXPECT_EQ(da.root_insert, db.root_insert);
  EXPECT_EQ(da.top_down, db.top_down);

  // ...identical disk-access counts...
  const auto dio1 = direct.system->SnapshotIo();
  const auto pio1 = piped.system->SnapshotIo();
  EXPECT_EQ((dio1.tree - dio0.tree).total_io(),
            (pio1.tree - pio0.tree).total_io());
  EXPECT_EQ((dio1.hash - dio0.hash).total_io(),
            (pio1.hash - pio0.hash).total_io());

  // ...and identical query answers across a window sweep.
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Rect w = WorkloadGenerator::QueryWindowFrom(rng, 0.1);
    auto ma = direct.executor->Query(w);
    auto mb = index.Query(w);
    ASSERT_TRUE(ma.ok());
    ASSERT_TRUE(mb.ok());
    EXPECT_EQ(ma.value(), mb.value()) << "window " << i;
  }

  EXPECT_TRUE(piped.system->tree().Validate().ok());
}

}  // namespace
}  // namespace burtree
