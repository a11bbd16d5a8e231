// Shared helpers for the multi-threaded test suites: invariant audits
// reused by the stress/torture tests and the retry wrapper for noisy
// wall-clock throughput comparisons (factored out of experiment_test so
// every tps-comparison assertion tolerates oversubscribed CI hosts the
// same way).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/scenario.h"

namespace burtree {
namespace testutil {

/// Component-level form of the oid-index audit, usable on a recovered
/// bare tree (WAL crash recovery rebuilds the hash index from the tree
/// via ReplayStructureTo before calling this): each listed oid must
/// resolve through `oidx` to the leaf that physically holds its entry.
inline void ExpectOidIndexConsistent(RTree& tree, HashIndex& oidx,
                                     const std::vector<ObjectId>& oids) {
  for (const ObjectId oid : oids) {
    auto leaf_or = oidx.Lookup(oid);
    ASSERT_TRUE(leaf_or.ok()) << "oid " << oid << " missing from index";
    PageGuard g = PageGuard::Fetch(tree.pool(), leaf_or.value());
    NodeView v(g.data(), tree.options().page_size,
               tree.options().parent_pointers);
    ASSERT_TRUE(v.is_leaf());
    EXPECT_GE(v.FindOidSlot(oid), 0)
        << "oid " << oid << " not in its indexed leaf " << leaf_or.value();
  }
}

/// Every oid in [0, num_objects) must resolve through the hash index to
/// the leaf that physically holds its data entry — a desync here is how
/// a lost latch corrupts bottom-up updates.
inline void ExpectOidIndexConsistent(IndexSystem& sys,
                                     uint64_t num_objects) {
  HashIndex* oidx = sys.oid_index();
  ASSERT_NE(oidx, nullptr);
  std::vector<ObjectId> oids(num_objects);
  for (ObjectId oid = 0; oid < num_objects; ++oid) oids[oid] = oid;
  ExpectOidIndexConsistent(sys.tree(), *oidx, oids);
}

/// Every data entry in the tree, by oid — object conservation audits on
/// recovered trees check membership and duplication against this.
inline std::vector<ObjectId> CollectOids(RTree& tree) {
  std::vector<ObjectId> oids;
  EXPECT_TRUE(
      tree.Query(Rect(0, 0, 1, 1), [&](ObjectId oid, const Rect&) {
            oids.push_back(oid);
          })
          .ok());
  return oids;
}

/// Full-space match count over a bare tree (recovered-tree variant).
inline uint64_t FullSpaceCount(RTree& tree) {
  uint64_t count = 0;
  EXPECT_TRUE(
      tree.Query(Rect(0, 0, 1, 1), [&](ObjectId, const Rect&) { ++count; })
          .ok());
  return count;
}

/// Full-space match count — object conservation (nothing lost, nothing
/// duplicated) after a concurrent run.
inline uint64_t FullSpaceCount(IndexSystem& sys) {
  return FullSpaceCount(sys.tree());
}

/// Wall-clock tps comparisons are noisy when the host is oversubscribed
/// (ctest -j on few cores). The figure claims are qualitative, so allow
/// a few re-measurements before declaring one violated: `faster` and
/// `slower` each run one measurement and return its tps; the comparison
/// holds as soon as one attempt sees faster > slower.
template <typename FasterFn, typename SlowerFn>
bool EventuallyFaster(FasterFn faster, SlowerFn slower, int attempts = 3) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const double f = faster();
    const double s = slower();
    if (f > s) return true;
  }
  return false;
}

/// Runs one scenario, asserting success, returning its tps.
inline double MustRunTps(const ScenarioSpec& spec) {
  auto res = RunScenario(spec);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.ok() ? res.value().tps : 0.0;
}

}  // namespace testutil
}  // namespace burtree
