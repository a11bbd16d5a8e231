// Cross-strategy property tests: every strategy must produce the same
// final object placement semantics (exact query results) no matter which
// decision-ladder arms fire, across GBU tuning-parameter sweeps.
#include <gtest/gtest.h>

#include <set>

#include "harness/experiment.h"

namespace burtree {
namespace {

std::set<ObjectId> ExactQuery(const WorkloadGenerator& w,
                              const Rect& window) {
  std::set<ObjectId> expect;
  for (ObjectId oid = 0; oid < w.options().num_objects; ++oid) {
    if (window.Contains(w.position(oid))) expect.insert(oid);
  }
  return expect;
}

struct SweepParam {
  double epsilon;
  double delta;
  uint32_t lambda;
  bool piggyback;
  bool directional;
  double max_move;
};

class GbuParameterSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GbuParameterSweepTest, CorrectUnderAnyTuning) {
  const SweepParam p = GetParam();
  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.workload.num_objects = 1500;
  cfg.workload.max_move_distance = p.max_move;
  cfg.workload.seed = 1234;
  cfg.gbu.epsilon = p.epsilon;
  cfg.gbu.distance_threshold = p.delta;
  cfg.gbu.level_threshold = p.lambda;
  cfg.gbu.piggyback = p.piggyback;
  cfg.gbu.directional_extension = p.directional;

  WorkloadGenerator workload(cfg.workload);
  auto fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());

  for (int i = 0; i < 5000; ++i) {
    const auto op = workload.NextUpdate();
    ASSERT_TRUE(fx.strategy->Update(op.oid, op.from, op.to).ok())
        << "update " << i;
  }

  ASSERT_TRUE(fx.system->tree().Validate().ok());
  ASSERT_TRUE(fx.system->summary()->SelfCheck());
  EXPECT_EQ(fx.system->oid_index()->size(), cfg.workload.num_objects);

  for (int q = 0; q < 15; ++q) {
    const Rect window = workload.NextQueryWindow();
    std::set<ObjectId> got;
    auto matches = fx.executor->Query(
        window, [&](ObjectId oid, const Rect&) { got.insert(oid); });
    ASSERT_TRUE(matches.ok());
    EXPECT_EQ(got, ExactQuery(workload, window)) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tunings, GbuParameterSweepTest,
    ::testing::Values(
        SweepParam{0.0, 0.03, 3, true, true, 0.03},
        SweepParam{0.003, 0.03, GbuOptions::kLevelThresholdMax, true, true,
                   0.03},
        SweepParam{0.03, 0.0, 2, true, true, 0.03},
        SweepParam{0.003, 3.0, 1, false, true, 0.03},
        SweepParam{0.007, 0.03, 0, true, false, 0.03},
        SweepParam{0.015, 0.3, GbuOptions::kLevelThresholdMax, false, false,
                   0.1},
        SweepParam{0.003, 0.03, GbuOptions::kLevelThresholdMax, true, true,
                   0.15}));

// Every strategy, same seed: identical final query answers (positions are
// strategy-independent; only the index organization differs).
TEST(CrossStrategyEquivalenceTest, SameAnswersAllStrategies) {
  constexpr uint64_t kObjects = 1200;
  constexpr int kUpdates = 4000;
  std::vector<std::set<ObjectId>> answers;
  for (StrategyKind kind :
       {StrategyKind::kTopDown, StrategyKind::kLocalizedBottomUp,
        StrategyKind::kGeneralizedBottomUp}) {
    ExperimentConfig cfg;
    cfg.strategy = kind;
    cfg.workload.num_objects = kObjects;
    cfg.workload.seed = 999;
    WorkloadGenerator workload(cfg.workload);
    auto fx = MakeFixture(cfg);
    ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
    for (int i = 0; i < kUpdates; ++i) {
      const auto op = workload.NextUpdate();
      ASSERT_TRUE(fx.strategy->Update(op.oid, op.from, op.to).ok());
    }
    std::set<ObjectId> got;
    auto m = fx.executor->Query(Rect(0.2, 0.2, 0.65, 0.7),
                                [&](ObjectId oid, const Rect&) {
                                  got.insert(oid);
                                });
    ASSERT_TRUE(m.ok());
    answers.push_back(std::move(got));
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0], answers[2]);
}

// Strategy equivalence under tuning + distribution sweeps: after an
// identical randomized update trace, TD, LBU, and GBU must return
// byte-identical window-query result sets, for every (epsilon, delta)
// tuning and for uniform as well as skewed initial placements.
struct EquivalenceParam {
  double epsilon;
  double delta;
  Distribution dist;
};

std::string Label(const EquivalenceParam& p) {
  std::string name = DistributionName(p.dist);
  name += "_eps";
  name += std::to_string(static_cast<int>(p.epsilon * 1000));
  name += "_delta";
  name += std::to_string(static_cast<int>(p.delta * 1000));
  return name;
}

std::string EquivalenceParamName(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  return Label(info.param);
}

// Without it gtest prints the parameter as its raw bytes, including the
// struct's uninitialised tail padding, and ctest names carry that dump:
// they differed between two builds of the same source.
void PrintTo(const EquivalenceParam& p, std::ostream* os) { *os << Label(p); }

class StrategyTraceEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(StrategyTraceEquivalenceTest, IdenticalAnswersAfterIdenticalTrace) {
  const EquivalenceParam p = GetParam();
  constexpr int kUpdates = 3000;
  constexpr int kQueries = 20;
  // answers[strategy][query] — compared for byte-identical equality below.
  std::vector<std::vector<std::set<ObjectId>>> answers;
  for (StrategyKind kind :
       {StrategyKind::kTopDown, StrategyKind::kLocalizedBottomUp,
        StrategyKind::kGeneralizedBottomUp}) {
    ExperimentConfig cfg;
    cfg.strategy = kind;
    cfg.workload.num_objects = 1000;
    cfg.workload.distribution = p.dist;
    cfg.workload.seed = 20260707;
    cfg.gbu.epsilon = p.epsilon;
    cfg.gbu.distance_threshold = p.delta;
    cfg.lbu.epsilon = p.epsilon;
    WorkloadGenerator workload(cfg.workload);
    auto fx = MakeFixture(cfg);
    ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
    for (int i = 0; i < kUpdates; ++i) {
      const auto op = workload.NextUpdate();
      ASSERT_TRUE(fx.strategy->Update(op.oid, op.from, op.to).ok())
          << StrategyName(kind) << " update " << i;
    }
    ASSERT_TRUE(fx.system->tree().Validate().ok());
    std::vector<std::set<ObjectId>> per_query;
    for (int q = 0; q < kQueries; ++q) {
      const Rect window = workload.NextQueryWindow();
      std::set<ObjectId> got;
      auto matches = fx.executor->Query(
          window, [&](ObjectId oid, const Rect&) { got.insert(oid); });
      ASSERT_TRUE(matches.ok());
      // Each strategy must also agree with the generator's ground truth.
      EXPECT_EQ(got, ExactQuery(workload, window))
          << StrategyName(kind) << " query " << q;
      per_query.push_back(std::move(got));
    }
    answers.push_back(std::move(per_query));
  }
  EXPECT_EQ(answers[0], answers[1]) << "TD vs LBU";
  EXPECT_EQ(answers[0], answers[2]) << "TD vs GBU";
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonDeltaDistributionSweep, StrategyTraceEquivalenceTest,
    ::testing::Values(
        EquivalenceParam{0.0, 0.0, Distribution::kUniform},
        EquivalenceParam{0.0, 0.3, Distribution::kUniform},
        EquivalenceParam{0.003, 0.03, Distribution::kUniform},
        EquivalenceParam{0.015, 0.0, Distribution::kUniform},
        EquivalenceParam{0.015, 0.3, Distribution::kUniform},
        EquivalenceParam{0.0, 0.0, Distribution::kSkewed},
        EquivalenceParam{0.0, 0.3, Distribution::kSkewed},
        EquivalenceParam{0.003, 0.03, Distribution::kSkewed},
        EquivalenceParam{0.015, 0.0, Distribution::kSkewed},
        EquivalenceParam{0.015, 0.3, Distribution::kSkewed}),
    EquivalenceParamName);

// Failure injection: updates against a missing oid must fail cleanly and
// leave the structures intact for all strategies.
class MissingObjectTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(MissingObjectTest, FailsCleanly) {
  ExperimentConfig cfg;
  cfg.strategy = GetParam();
  cfg.workload.num_objects = 300;
  WorkloadGenerator workload(cfg.workload);
  auto fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
  EXPECT_FALSE(
      fx.strategy->Update(100000, Point{0.5, 0.5}, Point{0.6, 0.6}).ok());
  EXPECT_TRUE(fx.system->tree().Validate().ok());
  // Subsequent valid updates still work.
  const auto op = workload.NextUpdate();
  EXPECT_TRUE(fx.strategy->Update(op.oid, op.from, op.to).ok());
}

INSTANTIATE_TEST_SUITE_P(Kinds, MissingObjectTest,
                         ::testing::Values(
                             StrategyKind::kTopDown,
                             StrategyKind::kLocalizedBottomUp,
                             StrategyKind::kGeneralizedBottomUp),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

}  // namespace
}  // namespace burtree
