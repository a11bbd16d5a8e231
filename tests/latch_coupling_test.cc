// Concurrency torture tests for the coupled latch mode: no tree-wide
// latch exists on this path, so correctness under split storms rests
// entirely on the top-down X-latch-coupled descent (release ancestors
// when the child is split-safe, reserve split pages before mutating) and
// the bottom-up remove + coupled re-insert escalation. These tests force
// continuous structure modifications on a tiny-fanout tree from many
// threads and then audit every invariant — plus the headline counters,
// and coupled beating the global latch's throughput on an
// escalation-heavy mix.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "concurrency_test_util.h"
#include "harness/experiment.h"

namespace burtree {
namespace {

/// Tiny-fanout fixture: 256-byte pages hold ~5 leaf entries, so a few
/// thousand inserts force continuous leaf and internal splits plus
/// several root grows.
ExperimentConfig TinyFanoutConfig(StrategyKind kind, uint64_t objects) {
  ExperimentConfig cfg;
  cfg.strategy = kind;
  cfg.page_size = 256;
  cfg.workload.num_objects = objects;
  cfg.workload.seed = 4242;
  cfg.buffer_fraction = 1.0;  // RAM-speed: the storm is about latches
  return cfg;
}

class SplitStormTest : public ::testing::TestWithParam<StrategyKind> {};

// 8 threads insert disjoint fresh oids into a tiny-fanout tree in
// coupled mode: continuous node splits, zero tree-wide escalations.
TEST_P(SplitStormTest, ConcurrentInsertStormStaysConsistent) {
  const StrategyKind kind = GetParam();
  constexpr int kThreads = 8;
  constexpr uint64_t kInitial = 128;
  constexpr uint64_t kPerThread = 1500;

  ExperimentConfig cfg = TinyFanoutConfig(kind, kInitial);
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());

  ConcurrencyOptions copts;
  copts.io_latency_us = 0;
  copts.latch_mode = LatchMode::kCoupled;
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  const RTreeStats before = fx.system->tree().stats();
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(9000 + t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const ObjectId oid =
            kInitial + static_cast<uint64_t>(t) * kPerThread + i;
        const Point pos{rng.NextDouble(), rng.NextDouble()};
        if (!index.Insert(oid, pos).ok()) {
          ok = false;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());

  const uint64_t total = kInitial + kThreads * kPerThread;
  IndexSystem& sys = *fx.system;

  // The storm actually stormed: lots of splits, a taller tree.
  const RTreeStats after = sys.tree().stats();
  EXPECT_GT(after.leaf_splits, before.leaf_splits + 100);
  EXPECT_GT(after.internal_splits, before.internal_splits);
  EXPECT_GT(after.root_grows, 0u);

  // The headline counter: the compound-gate fallback (an insert starved
  // past its 64-descent retry budget) is legal by design but must stay a
  // rounding error — every insert is accounted for either way.
  const LatchModeStats ls = index.latch_stats();
  EXPECT_EQ(ls.coupled_inserts + ls.compound_smos, kThreads * kPerThread);
  EXPECT_LE(ls.compound_smos, kThreads * kPerThread / 100);

  // The latch table really carried the descents.
  const LatchTableStats ts = index.latch_table_stats();
  EXPECT_GT(ts.exclusive_acquires, 0u);
  EXPECT_GT(ts.try_acquires, 0u);

  // Invariant audit: MBR containment / levels / fill via Validate,
  // oid-map consistency, object conservation, summary self-check.
  EXPECT_TRUE(sys.tree().Validate().ok());
  testutil::ExpectOidIndexConsistent(sys, total);
  EXPECT_EQ(testutil::FullSpaceCount(sys), total);
  if (sys.summary() != nullptr) {
    EXPECT_TRUE(sys.summary()->SelfCheck());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SplitStormTest,
                         ::testing::Values(
                             StrategyKind::kLocalizedBottomUp,
                             StrategyKind::kGeneralizedBottomUp),
                         [](const auto& info) {
                           return std::string(StrategyName(info.param));
                         });

// Escalation storm: every update is a global jump, so nearly every one
// leaves the scoped fast path — in coupled mode that must run as the
// latched remove + coupled re-insert, never under a tree-wide latch.
TEST(CoupledEscalationStormTest, GlobalJumpsNeverTakeTreeLatch) {
  constexpr int kThreads = 8;
  constexpr uint64_t kObjects = 2000;
  ExperimentConfig cfg =
      TinyFanoutConfig(StrategyKind::kGeneralizedBottomUp, kObjects);
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());

  ConcurrencyOptions copts;
  copts.io_latency_us = 0;
  copts.latch_mode = LatchMode::kCoupled;
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(31000 + t);
      const uint64_t lo = kObjects * t / kThreads;
      const uint64_t hi = kObjects * (t + 1) / kThreads;
      std::vector<Point> pos(
          workload.initial_positions().begin() + static_cast<long>(lo),
          workload.initial_positions().begin() + static_cast<long>(hi));
      for (int i = 0; i < 400; ++i) {
        const uint64_t k = rng.NextBelow(hi - lo);
        const Point to{rng.NextDouble(), rng.NextDouble()};
        if (!index.Update(lo + k, pos[k], to).ok()) {
          ok = false;
          return;
        }
        pos[k] = to;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());

  const LatchModeStats ls = index.latch_stats();
  EXPECT_GT(ls.coupled_escalations, 0u);  // the jumps left the fast path
  EXPECT_GT(ls.split_unsafe_plans, 0u);   // the bit vector saw full leaves

  IndexSystem& sys = *fx.system;
  EXPECT_TRUE(sys.tree().Validate().ok());
  testutil::ExpectOidIndexConsistent(sys, kObjects);
  EXPECT_EQ(testutil::FullSpaceCount(sys), kObjects);
  EXPECT_TRUE(sys.summary()->SelfCheck());
}

// Readers against the storm: coupled queries interleave with inserts
// and global-jump updates; every query must return a plausible count
// (no crash, no deadlock) and the final audit must hold.
TEST(CoupledReaderWriterTortureTest, QueriesDuringSplitStorm) {
  constexpr int kWriters = 6;
  constexpr int kReaders = 2;
  constexpr uint64_t kObjects = 1500;
  ExperimentConfig cfg =
      TinyFanoutConfig(StrategyKind::kGeneralizedBottomUp, kObjects);
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());

  ConcurrencyOptions copts;
  copts.io_latency_us = 0;
  copts.latch_mode = LatchMode::kCoupled;
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  std::atomic<uint64_t> next_oid{kObjects};
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(77000 + t);
      for (int i = 0; i < 350; ++i) {
        const ObjectId oid = next_oid.fetch_add(1);
        if (!index.Insert(oid, Point{rng.NextDouble(), rng.NextDouble()})
                 .ok()) {
          ok = false;
          return;
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(88000 + t);
      for (int i = 0; i < 250; ++i) {
        auto res =
            index.Query(WorkloadGenerator::QueryWindowFrom(rng, 0.2));
        if (!res.ok()) {
          ok = false;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());

  const uint64_t total = next_oid.load();
  EXPECT_GT(index.latch_stats().coupled_queries, 0u);

  IndexSystem& sys = *fx.system;
  EXPECT_TRUE(sys.tree().Validate().ok());
  testutil::ExpectOidIndexConsistent(sys, total);
  EXPECT_EQ(testutil::FullSpaceCount(sys), total);
}

// The performance claim behind coupled mode: on an escalation-heavy
// update mix with in-op I/O latency, global mode serializes every update
// and its I/O stalls under the tree-wide latch while coupled mode
// overlaps them under page latches — coupled must come out ahead.
TEST(CoupledThroughputTest, CoupledBeatsGlobalOnEscalationHeavyUpdates) {
  ScenarioSpec mk;
  mk.base.workload.num_objects = 4000;
  mk.base.workload.max_move_distance = 0.3;  // global jumps: escalations
  mk.base.strategy = StrategyKind::kGeneralizedBottomUp;
  mk.threads = 8;
  mk.ops_per_thread = 80;
  mk.update_pct = 100;
  mk.io_latency_us = 200;
  mk.io_latency_in_op = true;

  EXPECT_TRUE(testutil::EventuallyFaster(
      [&]() {
        mk.base.latch_mode = LatchMode::kCoupled;
        return testutil::MustRunTps(mk);
      },
      [&]() {
        mk.base.latch_mode = LatchMode::kGlobal;
        return testutil::MustRunTps(mk);
      }));
}

}  // namespace
}  // namespace burtree
