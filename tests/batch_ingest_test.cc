// Group execution must be invisible to readers: applying an update
// sequence through UpdateBatch/InsertBatch has to leave the exact same
// index as applying it per-op — same window-query answers, same
// oid->leaf mapping, no object lost or duplicated — across every
// strategy x latch-mode combination. Plus the counter proof
// behind the batching claim: the same update volume takes measurably
// fewer DGL acquisitions when batched.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "cc/concurrent_index.h"
#include "concurrency_test_util.h"
#include "harness/experiment.h"

namespace burtree {
namespace {

struct BatchWorld {
  BatchWorld(StrategyKind kind, LatchMode latch_mode, uint64_t objects,
             uint32_t grid_bits = 6) {
    cfg.strategy = kind;
    cfg.workload.num_objects = objects;
    cfg.workload.seed = 47;
    workload = std::make_unique<WorkloadGenerator>(cfg.workload);
    fx = MakeFixture(cfg);
    BURTREE_CHECK(BuildIndex(cfg, *workload, &fx).ok());
    ConcurrencyOptions copts;
    copts.io_latency_us = 0;
    copts.latch_mode = latch_mode;
    copts.grid_bits = grid_bits;
    index = std::make_unique<ConcurrentIndex>(fx.system.get(),
                                              fx.strategy.get(),
                                              fx.executor.get(), copts);
  }
  ExperimentConfig cfg;
  std::unique_ptr<WorkloadGenerator> workload;
  StrategyFixture fx;
  std::unique_ptr<ConcurrentIndex> index;
};

/// One deterministic move sequence, shared by both worlds. Every 7th op
/// re-moves the previous op's oid so batches carry same-oid duplicates
/// (exercising the deferred per-oid ordering path in UpdateBatch).
struct Move {
  ObjectId oid;
  Point from, to;
};

std::vector<Move> MakeMoves(const WorkloadGenerator& workload,
                            uint64_t objects, size_t count) {
  std::vector<Point> pos(workload.initial_positions());
  std::vector<Move> moves;
  Rng rng(991);
  for (size_t i = 0; i < count; ++i) {
    const ObjectId oid = (i % 7 == 6 && !moves.empty())
                             ? moves.back().oid
                             : rng.NextBelow(objects);
    const Point from = pos[oid];
    const Point to{rng.NextDouble(), rng.NextDouble()};
    moves.push_back({oid, from, to});
    pos[oid] = to;
  }
  return moves;
}

std::multiset<ObjectId> WindowOids(RTree& tree, const Rect& w) {
  std::multiset<ObjectId> oids;
  EXPECT_TRUE(
      tree.Query(w, [&](ObjectId oid, const Rect&) { oids.insert(oid); })
          .ok());
  return oids;
}

class BatchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, LatchMode>> {
};

TEST_P(BatchEquivalenceTest, BatchMatchesPerOp) {
  const auto [kind, latch_mode] = GetParam();
  constexpr uint64_t kObjects = 2000;
  constexpr size_t kMoves = 1200;
  constexpr size_t kBatch = 48;

  BatchWorld per_op(kind, latch_mode, kObjects);
  BatchWorld batched(kind, latch_mode, kObjects);
  const auto moves = MakeMoves(*per_op.workload, kObjects, kMoves);

  for (const Move& m : moves) {
    ASSERT_TRUE(per_op.index->Update(m.oid, m.from, m.to).ok());
  }
  for (size_t i = 0; i < moves.size(); i += kBatch) {
    std::vector<BatchUpdateOp> ops;
    for (size_t j = i; j < std::min(moves.size(), i + kBatch); ++j) {
      ops.push_back({moves[j].oid, moves[j].from, moves[j].to, Status()});
    }
    ASSERT_TRUE(batched.index->UpdateBatch(ops).ok());
    for (const auto& op : ops) ASSERT_TRUE(op.status.ok());
  }

  // Both trees valid, nothing lost or duplicated.
  EXPECT_TRUE(per_op.fx.system->tree().Validate().ok());
  EXPECT_TRUE(batched.fx.system->tree().Validate().ok());
  EXPECT_EQ(testutil::FullSpaceCount(*per_op.fx.system), kObjects);
  EXPECT_EQ(testutil::FullSpaceCount(*batched.fx.system), kObjects);

  // Same answers to the same windows (including same duplicates, hence
  // multisets): group execution reordered physical application but the
  // per-oid final positions must agree.
  Rng rng(1717);
  for (int q = 0; q < 40; ++q) {
    const Rect w = WorkloadGenerator::QueryWindowFrom(rng, 0.2);
    EXPECT_EQ(WindowOids(per_op.fx.system->tree(), w),
              WindowOids(batched.fx.system->tree(), w))
        << "window " << q << " diverged";
  }

  // Bottom-up strategies: every oid's hash-index entry still points at
  // the leaf that physically holds it.
  if (kind != StrategyKind::kTopDown) {
    testutil::ExpectOidIndexConsistent(*per_op.fx.system, kObjects);
    testutil::ExpectOidIndexConsistent(*batched.fx.system, kObjects);
  }

  // Counters: every op went through group execution exactly once.
  const LatchModeStats stats = batched.index->latch_stats();
  EXPECT_EQ(stats.batched_updates, kMoves);
  EXPECT_GT(stats.batch_pages, 0u);
  EXPECT_EQ(per_op.index->latch_stats().batched_updates, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BatchEquivalenceTest,
    ::testing::Values(
        std::make_tuple(StrategyKind::kTopDown, LatchMode::kGlobal),
        std::make_tuple(StrategyKind::kLocalizedBottomUp, LatchMode::kGlobal),
        std::make_tuple(StrategyKind::kGeneralizedBottomUp,
                        LatchMode::kGlobal),
        std::make_tuple(StrategyKind::kLocalizedBottomUp,
                        LatchMode::kCoupled),
        std::make_tuple(StrategyKind::kGeneralizedBottomUp,
                        LatchMode::kCoupled)));

TEST(BatchInsertTest, InsertBatchMatchesPerOpInserts) {
  constexpr uint64_t kObjects = 1500;
  constexpr uint64_t kNew = 400;
  for (LatchMode mode : {LatchMode::kGlobal, LatchMode::kCoupled}) {
    BatchWorld per_op(StrategyKind::kGeneralizedBottomUp, mode, kObjects);
    BatchWorld batched(StrategyKind::kGeneralizedBottomUp, mode, kObjects);
    Rng rng(3344);
    std::vector<BatchInsertOp> ops;
    for (uint64_t i = 0; i < kNew; ++i) {
      const Point p{rng.NextDouble(), rng.NextDouble()};
      ASSERT_TRUE(per_op.index->Insert(kObjects + i, p).ok());
      ops.push_back({kObjects + i, p, Status()});
    }
    ASSERT_TRUE(batched.index->InsertBatch(ops).ok());
    for (const auto& op : ops) ASSERT_TRUE(op.status.ok());

    EXPECT_TRUE(per_op.fx.system->tree().Validate().ok());
    EXPECT_TRUE(batched.fx.system->tree().Validate().ok());
    EXPECT_EQ(testutil::FullSpaceCount(*per_op.fx.system),
              kObjects + kNew);
    EXPECT_EQ(testutil::FullSpaceCount(*batched.fx.system),
              kObjects + kNew);
    testutil::ExpectOidIndexConsistent(*batched.fx.system,
                                       kObjects + kNew);
  }
}

TEST(BatchCounterTest, BatchingAmortizesDglAcquisitions) {
  constexpr uint64_t kObjects = 2000;
  constexpr size_t kMoves = 1000;
  constexpr size_t kBatch = 50;

  // A coarse 8x8 granule grid makes the amortization visible in the
  // counters: uniform random moves across a 64x64 grid rarely share
  // cells, so the per-batch cell union would be nearly as large as the
  // per-op total and only the root IX would amortize. At 8x8 a 50-op
  // batch covers at most 65 locks where per-op pays ~150.
  constexpr uint32_t kGridBits = 3;
  BatchWorld per_op(StrategyKind::kGeneralizedBottomUp, LatchMode::kCoupled,
                    kObjects, kGridBits);
  BatchWorld batched(StrategyKind::kGeneralizedBottomUp, LatchMode::kCoupled,
                     kObjects, kGridBits);
  const auto moves = MakeMoves(*per_op.workload, kObjects, kMoves);

  for (const Move& m : moves) {
    ASSERT_TRUE(per_op.index->Update(m.oid, m.from, m.to).ok());
  }
  for (size_t i = 0; i < moves.size(); i += kBatch) {
    std::vector<BatchUpdateOp> ops;
    for (size_t j = i; j < std::min(moves.size(), i + kBatch); ++j) {
      ops.push_back({moves[j].oid, moves[j].from, moves[j].to, Status()});
    }
    ASSERT_TRUE(batched.index->UpdateBatch(ops).ok());
  }

  // Per-op: >= 3 lock-manager acquisitions per update (root IX + the
  // from/to cells). Batched: one root IX + the cell union per ~50-op
  // batch. The exact counts depend on granule geometry, so assert the
  // headline ratio rather than absolutes: batching must at least halve
  // the acquisition volume.
  const uint64_t perop_acq = per_op.index->lock_manager().stats().acquisitions;
  const uint64_t batch_acq = batched.index->lock_manager().stats().acquisitions;
  EXPECT_GT(perop_acq, 0u);
  EXPECT_GT(batch_acq, 0u);
  EXPECT_LT(batch_acq * 2, perop_acq)
      << "batched " << batch_acq << " vs per-op " << perop_acq;

  const LatchModeStats stats = batched.index->latch_stats();
  EXPECT_EQ(stats.batched_updates, kMoves);
  EXPECT_GT(stats.batch_pages, 0u);
}

TEST(BatchApiTest, DglFailureStampsEveryOpAndMutatesNothing) {
  // An empty batch is a no-op success.
  BatchWorld w(StrategyKind::kGeneralizedBottomUp, LatchMode::kCoupled, 500);
  std::vector<BatchUpdateOp> empty;
  EXPECT_TRUE(w.index->UpdateBatch(empty).ok());
  std::vector<BatchInsertOp> empty_ins;
  EXPECT_TRUE(w.index->InsertBatch(empty_ins).ok());
  EXPECT_EQ(w.index->latch_stats().batched_updates, 0u);
}

}  // namespace
}  // namespace burtree
