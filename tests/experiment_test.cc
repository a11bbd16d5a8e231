// Integration tests of the experiment harness — small-scale versions of
// the paper's headline claims, asserted as inequalities so they double as
// regression checks on the reproduction's "shape".
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "concurrency_test_util.h"

namespace burtree {
namespace {

ExperimentConfig SmallConfig(StrategyKind kind) {
  ExperimentConfig cfg;
  cfg.strategy = kind;
  cfg.workload.num_objects = 8000;
  cfg.num_updates = 8000;
  cfg.num_queries = 300;
  cfg.workload.seed = 20030901;
  cfg.validate_after = true;
  return cfg;
}

TEST(ExperimentTest, RunsAllStrategies) {
  for (StrategyKind kind :
       {StrategyKind::kTopDown, StrategyKind::kLocalizedBottomUp,
        StrategyKind::kGeneralizedBottomUp}) {
    auto res = RunExperiment(SmallConfig(kind));
    ASSERT_TRUE(res.ok()) << StrategyName(kind);
    EXPECT_EQ(res.value().num_updates, 8000u);
    EXPECT_GT(res.value().avg_update_io, 0.0);
    EXPECT_GT(res.value().avg_query_io, 0.0);
    EXPECT_GT(res.value().query_matches, 0u);
    EXPECT_EQ(res.value().paths.total(), 8000u);
  }
}

TEST(ExperimentTest, HeadlineResultGbuBeatsTdOnUpdates) {
  // The paper's regime: a tree of height >= 4 (its cost analysis notes
  // bottom-up wins on average for height-4 trees) and a small buffer.
  auto mk = [](StrategyKind kind) {
    ExperimentConfig cfg = SmallConfig(kind);
    cfg.workload.num_objects = 20000;
    cfg.num_updates = 20000;
    cfg.buffer_fraction = 0.0;
    return cfg;
  };
  auto td = RunExperiment(mk(StrategyKind::kTopDown));
  auto gbu = RunExperiment(mk(StrategyKind::kGeneralizedBottomUp));
  ASSERT_TRUE(td.ok());
  ASSERT_TRUE(gbu.ok());
  ASSERT_GE(gbu.value().tree_height, 4u);
  // The paper's core claim: bottom-up updates need a fraction of TD's
  // disk accesses.
  EXPECT_LT(gbu.value().avg_update_io, td.value().avg_update_io * 0.7);
}

TEST(ExperimentTest, GbuQueryCompetitiveWithTd) {
  auto td = RunExperiment(SmallConfig(StrategyKind::kTopDown));
  auto gbu =
      RunExperiment(SmallConfig(StrategyKind::kGeneralizedBottomUp));
  ASSERT_TRUE(td.ok());
  ASSERT_TRUE(gbu.ok());
  // With small epsilon, GBU's query performance is on par or better
  // (paper §5.1.1).
  EXPECT_LT(gbu.value().avg_query_io, td.value().avg_query_io * 1.25);
}

TEST(ExperimentTest, IdenticalSeedsGiveIdenticalWorkloads) {
  auto a = RunExperiment(SmallConfig(StrategyKind::kGeneralizedBottomUp));
  auto b = RunExperiment(SmallConfig(StrategyKind::kGeneralizedBottomUp));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().avg_update_io, b.value().avg_update_io);
  EXPECT_EQ(a.value().query_matches, b.value().query_matches);
}

TEST(ExperimentTest, BufferReducesIo) {
  ExperimentConfig none = SmallConfig(StrategyKind::kGeneralizedBottomUp);
  none.buffer_fraction = 0.0;
  ExperimentConfig big = SmallConfig(StrategyKind::kGeneralizedBottomUp);
  big.buffer_fraction = 0.10;
  auto r0 = RunExperiment(none);
  auto r1 = RunExperiment(big);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_LT(r1.value().avg_update_io, r0.value().avg_update_io);
  EXPECT_LT(r1.value().avg_query_io, r0.value().avg_query_io);
}

TEST(ExperimentTest, BulkBuildPipelineWorks) {
  ExperimentConfig cfg = SmallConfig(StrategyKind::kGeneralizedBottomUp);
  cfg.bulk_build = true;
  auto res = RunExperiment(cfg);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res.value().query_matches, 0u);
}

TEST(ExperimentTest, LargerEpsilonReducesGbuUpdateIo) {
  ExperimentConfig small = SmallConfig(StrategyKind::kGeneralizedBottomUp);
  small.gbu.epsilon = 0.0;
  ExperimentConfig large = SmallConfig(StrategyKind::kGeneralizedBottomUp);
  large.gbu.epsilon = 0.03;
  auto r0 = RunExperiment(small);
  auto r1 = RunExperiment(large);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  // Fig. 5(a): a larger epsilon benefits GBU update cost.
  EXPECT_LE(r1.value().avg_update_io, r0.value().avg_update_io);
}

TEST(ExperimentTest, FasterMovementCostsMore) {
  ExperimentConfig slow = SmallConfig(StrategyKind::kGeneralizedBottomUp);
  slow.workload.max_move_distance = 0.003;
  ExperimentConfig fast = SmallConfig(StrategyKind::kGeneralizedBottomUp);
  fast.workload.max_move_distance = 0.15;
  auto r0 = RunExperiment(slow);
  auto r1 = RunExperiment(fast);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  // Fig. 5(g): update cost deteriorates with movement speed.
  EXPECT_GT(r1.value().avg_update_io, r0.value().avg_update_io);
}

TEST(ExperimentTest, Gbu0BeatsLbuOnUpdates) {
  // Fig 6(a): "the update performance of GBU-0 is better than that of
  // LBU as a result of improved optimizations" — even with no ascent,
  // the bit vector and the delta ordering save I/O. The figure makes the
  // claim across movement speeds; it is clearest for faster movers.
  ExperimentConfig lbu = SmallConfig(StrategyKind::kLocalizedBottomUp);
  lbu.workload.max_move_distance = 0.1;
  ExperimentConfig gbu0 =
      SmallConfig(StrategyKind::kGeneralizedBottomUp);
  gbu0.workload.max_move_distance = 0.1;
  gbu0.gbu.level_threshold = 0;
  auto a = RunExperiment(lbu);
  auto b = RunExperiment(gbu0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // At 1/100 of the paper's scale the two are within noise of each other
  // (LBU's probe overhead shrinks with small sibling sets); assert
  // GBU-0 is at least on par — the paper-scale gap is visible in
  // bench_fig6_level.
  EXPECT_LT(b.value().avg_update_io, a.value().avg_update_io * 1.10);
}

class DistributionSweepTest
    : public ::testing::TestWithParam<Distribution> {};

TEST_P(DistributionSweepTest, AllStrategiesCorrectUnderDistribution) {
  for (StrategyKind kind :
       {StrategyKind::kTopDown, StrategyKind::kLocalizedBottomUp,
        StrategyKind::kGeneralizedBottomUp}) {
    ExperimentConfig cfg = SmallConfig(kind);
    cfg.workload.num_objects = 4000;
    cfg.num_updates = 4000;
    cfg.num_queries = 100;
    cfg.workload.distribution = GetParam();
    auto res = RunExperiment(cfg);
    ASSERT_TRUE(res.ok()) << StrategyName(kind);
    EXPECT_EQ(res.value().paths.total(), 4000u);
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, DistributionSweepTest,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kGaussian,
                                           Distribution::kSkewed),
                         [](const auto& info) {
                           return DistributionName(info.param);
                         });

TEST(ExperimentThroughputTest, GbuBeatsTdAtHighUpdateShare) {
  ScenarioSpec mk;
  mk.base.workload.num_objects = 4000;
  mk.threads = 16;
  mk.ops_per_thread = 60;
  mk.update_pct = 100;  // Fig. 8's right edge
  mk.io_latency_us = 50;

  // The Figure-8 claim is qualitative — GBU above TD at a 100%-update
  // mix — so use the shared retry wrapper for the noisy comparison.
  EXPECT_TRUE(testutil::EventuallyFaster(
      [&]() {
        mk.base.strategy = StrategyKind::kGeneralizedBottomUp;
        return testutil::MustRunTps(mk);
      },
      [&]() {
        mk.base.strategy = StrategyKind::kTopDown;
        return testutil::MustRunTps(mk);
      }));
}

}  // namespace
}  // namespace burtree
