// Locks the default tuning values to the bold entries of the paper's
// Table 1 (and the conventions its §5 setup states). Benches rely on
// "default == paper" — a silent default change would invalidate every
// figure reproduction, so the defaults are pinned here.
#include <gtest/gtest.h>

#include "common/options.h"
#include "workload/generator.h"

namespace burtree {
namespace {

TEST(OptionsTest, TreeDefaultsMatchPaperSetup) {
  TreeOptions t;
  EXPECT_EQ(t.page_size, 1024u);  // §5: 1 KB pages for all experiments
  EXPECT_DOUBLE_EQ(t.min_fill_fraction, 0.4);
  EXPECT_EQ(t.split, SplitAlgorithm::kQuadratic);
  EXPECT_FALSE(t.parent_pointers);  // LBU opts in explicitly
  EXPECT_FALSE(t.forced_reinsert);
}

TEST(OptionsTest, GbuDefaultsMatchPaperTable1) {
  GbuOptions g;
  EXPECT_DOUBLE_EQ(g.epsilon, 0.003);
  EXPECT_DOUBLE_EQ(g.distance_threshold, 0.03);
  EXPECT_EQ(g.level_threshold, GbuOptions::kLevelThresholdMax);
  EXPECT_TRUE(g.piggyback);
  EXPECT_TRUE(g.summary_queries);
  EXPECT_TRUE(g.directional_extension);
}

TEST(OptionsTest, LbuDefaultsMatchPaperTable1) {
  LbuOptions l;
  EXPECT_DOUBLE_EQ(l.epsilon, 0.003);
}

TEST(OptionsTest, WorkloadDefaultsMatchPaperTable1) {
  WorkloadOptions w;
  EXPECT_EQ(w.distribution, Distribution::kUniform);
  EXPECT_DOUBLE_EQ(w.max_move_distance, 0.03);
  EXPECT_DOUBLE_EQ(w.query_max_dim, 0.1);
}

}  // namespace
}  // namespace burtree
