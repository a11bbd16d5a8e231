// Unit pack for the per-stripe version stamps behind optimistic
// version-validated reads (cc/latch_table) and for the restart-budget
// fallback of RTree::QueryOptimistic:
//   * every exclusive acquire and release bumps the stamp (odd while
//     X-held), shared holds and WaitForStripe never do;
//   * a torn read is detected: any writer pass over the stripe between
//     snapshot and validation fails ValidateVersion;
//   * TryBeginSnapshot fails while a writer holds the stripe;
//   * the optimistic descent returns LatchContention once its restart
//     budget starves (always-failing snapshot or always-stale validate);
//   * its fallback, the S-coupled RTree::QueryCoupled, returns every
//     object on a quiescent tree, returns LatchContention with nothing
//     emitted when a child's stripe is X-held, and stays exact against
//     concurrent coupled inserts over the same table;
//   * the stamp is 64-bit: a 16-bit counter would wrap back to its old
//     value after 2^16 writer passes (classic ABA) — ours must not.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cc/latch_table.h"
#include "concurrency_test_util.h"

namespace burtree {
namespace {

TEST(LatchVersionTest, ExclusiveAcquireAndReleaseEachBumpOnce) {
  LatchTable table(64);
  const PageId page = 7;
  const uint64_t v0 = table.ReadVersion(page);
  EXPECT_TRUE(table.ValidateVersion(page, v0));
  {
    PageLatchSet set(&table);
    set.AcquireExclusive(page);
    // Odd while held, and already distinct from the snapshot stamp.
    EXPECT_EQ(table.ReadVersion(page), v0 + 1);
    EXPECT_EQ(table.ReadVersion(page) % 2, 1u);
    EXPECT_FALSE(table.ValidateVersion(page, v0));
  }
  EXPECT_EQ(table.ReadVersion(page), v0 + 2);
  EXPECT_FALSE(table.ValidateVersion(page, v0));
  EXPECT_TRUE(table.ValidateVersion(page, v0 + 2));
}

TEST(LatchVersionTest, TryExtendAndSetAcquireBumpToo) {
  LatchTable table(64);
  const PageId a = 3, b = 4;
  const uint64_t va = table.ReadVersion(a);
  const uint64_t vb = table.ReadVersion(b);
  {
    PageLatchSet set(&table);
    set.AcquireExclusive(std::vector<PageId>{a});
    ASSERT_TRUE(set.TryExtendExclusive(b));
    EXPECT_EQ(table.ReadVersion(a), va + 1);
    EXPECT_EQ(table.ReadVersion(b), vb + 1);
  }
  EXPECT_EQ(table.ReadVersion(a), va + 2);
  EXPECT_EQ(table.ReadVersion(b), vb + 2);
}

TEST(LatchVersionTest, SharedHoldsAndStripeWaitsNeverBump) {
  LatchTable table(64);
  const PageId page = 11;
  const uint64_t v0 = table.ReadVersion(page);
  {
    PageLatchSet set(&table);
    set.AcquireShared(page);
    EXPECT_EQ(table.ReadVersion(page), v0);  // readers are invisible
  }
  table.WaitForStripe(page);  // momentary X with no mutation under it
  EXPECT_EQ(table.ReadVersion(page), v0);
  EXPECT_TRUE(table.ValidateVersion(page, v0));
}

TEST(LatchVersionTest, SnapshotFailsWhileWriterHolds) {
  LatchTable table(64);
  const PageId page = 5;
  PageLatchSet writer(&table);
  writer.AcquireExclusive(page);
  uint64_t v = 0;
  EXPECT_FALSE(table.TryBeginSnapshot(page, &v));
  writer.ReleaseAll();
  ASSERT_TRUE(table.TryBeginSnapshot(page, &v));
  EXPECT_EQ(v % 2, 0u);  // never a mid-write stamp
  table.EndSnapshot(page);
  EXPECT_TRUE(table.ValidateVersion(page, v));
}

TEST(LatchVersionTest, WriterPassBetweenSnapshotAndValidateIsDetected) {
  LatchTable table(64);
  const PageId page = 19;
  uint64_t v = 0;
  ASSERT_TRUE(table.TryBeginSnapshot(page, &v));
  table.EndSnapshot(page);
  {
    PageLatchSet writer(&table);
    writer.AcquireExclusive(page);  // the "torn" write
  }
  EXPECT_FALSE(table.ValidateVersion(page, v));
}

TEST(LatchVersionTest, SixtyFourBitStampDefeats16BitAbaWrap) {
  LatchTable table(1);  // one stripe: every pass hits it
  const PageId page = 0;
  const uint64_t v0 = table.ReadVersion(page);
  // 2^16 writer passes = 2^17 bumps: a 16-bit stamp would have wrapped
  // to exactly v0 and a snapshot taken before the storm would validate
  // against a completely rewritten page.
  for (int i = 0; i < (1 << 16); ++i) {
    PageLatchSet writer(&table);
    writer.AcquireExclusive(page);
  }
  EXPECT_EQ(table.ReadVersion(page), v0 + (1u << 17));
  EXPECT_FALSE(table.ValidateVersion(page, v0));
  EXPECT_FALSE(table.ValidateVersion(page, v0 + (1u << 16)));
}

/// Hooks whose snapshots never begin: every attempt burns restart
/// budget, so the descent must starve into LatchContention.
class NeverBeginsHooks final : public VersionLatchHooks {
 public:
  bool TryBeginSnapshot(PageId, uint64_t*) override { return false; }
  void EndSnapshot(PageId) override {}
  bool Validate(PageId, uint64_t) override { return true; }
};

/// Hooks whose validations always fail: snapshots copy fine (through a
/// real latch table) but every internal node re-validation reports a
/// stale read, so the descent must starve too.
class AlwaysStaleHooks final : public VersionLatchHooks {
 public:
  explicit AlwaysStaleHooks(LatchTable* table) : table_(table) {}
  bool TryBeginSnapshot(PageId page, uint64_t* v) override {
    return table_->TryBeginSnapshot(page, v);
  }
  void EndSnapshot(PageId page) override { table_->EndSnapshot(page); }
  bool Validate(PageId, uint64_t) override { return false; }

 private:
  LatchTable* table_;
};

class OptimisticFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.strategy = StrategyKind::kGeneralizedBottomUp;
    cfg_.page_size = 512;  // several levels at 800 objects
    cfg_.workload.num_objects = 800;
    cfg_.workload.seed = 42;
    WorkloadGenerator workload(cfg_.workload);
    fx_ = MakeFixture(cfg_);
    ASSERT_TRUE(BuildIndex(cfg_, workload, &fx_).ok());
    ASSERT_GE(fx_.system->tree().root_level(), 1);
  }

  ExperimentConfig cfg_;
  StrategyFixture fx_;
};

TEST_F(OptimisticFallbackTest, StarvedSnapshotsExhaustBudgetToContention) {
  NeverBeginsHooks hooks;
  const Status st = fx_.system->tree().QueryOptimistic(
      Rect(0, 0, 1, 1), [](ObjectId, const Rect&) {}, &hooks,
      /*restart_budget=*/8);
  EXPECT_EQ(st.code(), StatusCode::kLatchContention);
}

TEST_F(OptimisticFallbackTest, PerpetuallyStaleValidationsStarveToo) {
  LatchTable table(256);
  AlwaysStaleHooks hooks(&table);
  const Status st = fx_.system->tree().QueryOptimistic(
      Rect(0, 0, 1, 1), [](ObjectId, const Rect&) {}, &hooks,
      /*restart_budget=*/8);
  EXPECT_EQ(st.code(), StatusCode::kLatchContention);
}

TEST_F(OptimisticFallbackTest, QuiescentOptimisticScanSeesEverything) {
  LatchTable table(256);
  OptimisticReaderHooks hooks(&table);
  uint64_t count = 0;
  const Status st = fx_.system->tree().QueryOptimistic(
      Rect(0, 0, 1, 1), [&](ObjectId, const Rect&) { ++count; }, &hooks);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, cfg_.workload.num_objects);
}

TEST_F(OptimisticFallbackTest, QuiescentCoupledScanSeesEverything) {
  LatchTable table(256);
  PageLatchSet latches(&table);
  ReaderHooks hooks(&latches);
  uint64_t count = 0;
  const Status st = fx_.system->tree().QueryCoupled(
      Rect(0, 0, 1, 1), [&](ObjectId, const Rect&) { ++count; }, &hooks);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, cfg_.workload.num_objects);
  EXPECT_EQ(latches.held_stripes(), 0u);
}

TEST_F(OptimisticFallbackTest, CoupledScanYieldsToHeldChildStripe) {
  RTree& tree = fx_.system->tree();
  LatchTable table(256);
  // A root child whose stripe differs from the root's: the descent's
  // blocking root acquisition succeeds, its try-latch on the child fails.
  PageId child = kInvalidPageId;
  {
    PageGuard g = PageGuard::Fetch(tree.pool(), tree.root());
    NodeView v(g.data(), tree.options().page_size,
               tree.options().parent_pointers);
    for (uint32_t i = 0; i < v.count(); ++i) {
      const PageId c = v.internal_entry(i).child;
      if (table.StripeOf(c) != table.StripeOf(tree.root())) {
        child = c;
        break;
      }
    }
  }
  ASSERT_NE(child, kInvalidPageId);
  PageLatchSet writer(&table);
  writer.AcquireExclusive(child);

  PageLatchSet latches(&table);
  ReaderHooks hooks(&latches);
  uint64_t emitted = 0;
  const Status st = tree.QueryCoupled(
      Rect(0, 0, 1, 1), [&](ObjectId, const Rect&) { ++emitted; }, &hooks);
  EXPECT_EQ(st.code(), StatusCode::kLatchContention);
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(latches.held_stripes(), 0u);
}

// The S-coupled descent is the last resort of the coupled read path, so
// it must stay exact against the writers it falls back from. Coupled
// inserts land in x,y >= 0.6 while readers S-couple probe windows in
// x,y <= 0.4 (ground truth frozen for the whole run) and full-space
// scans (bounded by the inserts completed before and started after the
// scan), all over one LatchTable through the adapters ConcurrentIndex
// uses.
TEST(CoupledFallbackStormTest, SCoupledReadsStayExactDuringInsertStorm) {
  constexpr uint64_t kObjects = 1500;
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr uint64_t kInsertsPerWriter = 200;

  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.page_size = 512;
  cfg.buffer_fraction = 1.0;
  cfg.workload.num_objects = kObjects;
  cfg.workload.seed = 91;
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());
  RTree& tree = fx.system->tree();
  ASSERT_GE(tree.root_level(), 1);

  const std::vector<Rect> probes{Rect(0.02, 0.02, 0.22, 0.22),
                                 Rect(0.15, 0.10, 0.35, 0.30),
                                 Rect(0.05, 0.20, 0.25, 0.40)};
  std::vector<std::vector<ObjectId>> truth(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(tree.Query(probes[i], [&](ObjectId oid, const Rect&) {
                      truth[i].push_back(oid);
                    }).ok());
    std::sort(truth[i].begin(), truth[i].end());
    ASSERT_FALSE(truth[i].empty());
  }

  LatchTable table;
  std::atomic<uint64_t> started{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> storm_done{false};
  std::atomic<bool> writer_failed{false};
  std::atomic<bool> reader_failed{false};
  std::atomic<bool> mismatch{false};
  std::atomic<uint64_t> exact_reads{0};
  // The storm starts once every reader runs, so a loaded host that is
  // slow to schedule the readers cannot leave them no storm to read.
  std::atomic<int> readers_running{0};

  // One S-coupled read, retried on contention; false when it starved.
  auto coupled_read = [&](const Rect& w, std::vector<ObjectId>* out) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      out->clear();
      PageLatchSet latches(&table);
      ReaderHooks hooks(&latches);
      const Status st = tree.QueryCoupled(
          w, [&](ObjectId oid, const Rect&) { out->push_back(oid); },
          &hooks);
      if (st.ok()) return true;
      if (st.code() != StatusCode::kLatchContention) reader_failed = true;
      std::this_thread::yield();
    }
    return false;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t]() {
      while (readers_running.load() < kReaders) std::this_thread::yield();
      Rng rng(500 + static_cast<uint64_t>(t));
      for (uint64_t j = 0; j < kInsertsPerWriter; ++j) {
        const ObjectId oid =
            kObjects + kInsertsPerWriter * static_cast<uint64_t>(t) + j;
        const Rect r = IndexSystem::PointRect(
            Point{0.6 + rng.NextDouble() * 0.35,
                  0.6 + rng.NextDouble() * 0.35});
        started.fetch_add(1);
        for (;;) {
          PageId contended = kInvalidPageId;
          {
            PageLatchSet latches(&table);
            CoupledWriterHooks hooks(&latches);
            const Status st = tree.InsertCoupled(oid, r, &hooks);
            if (st.ok()) break;
            if (st.code() != StatusCode::kLatchContention) {
              writer_failed = true;
              return;
            }
            contended = hooks.last_contended();
          }
          if (contended != kInvalidPageId) table.WaitForStripe(contended);
        }
        completed.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t]() {
      readers_running.fetch_add(1);
      std::vector<ObjectId> got;
      for (size_t i = static_cast<size_t>(t);
           !storm_done.load(std::memory_order_acquire); ++i) {
        if (i % 4 == 3) {
          const uint64_t lo = completed.load();
          if (!coupled_read(Rect(0, 0, 1, 1), &got)) continue;
          const uint64_t hi = started.load();
          std::sort(got.begin(), got.end());
          if (got.size() < kObjects + lo || got.size() > kObjects + hi ||
              std::adjacent_find(got.begin(), got.end()) != got.end()) {
            mismatch = true;
          }
        } else {
          const size_t p = i % probes.size();
          if (!coupled_read(probes[p], &got)) continue;
          std::sort(got.begin(), got.end());
          if (got != truth[p]) mismatch = true;
        }
        exact_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  storm_done = true;
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  ASSERT_FALSE(writer_failed.load());
  EXPECT_FALSE(reader_failed.load());
  EXPECT_FALSE(mismatch.load()) << "an S-coupled read missed or duplicated";
  EXPECT_GT(exact_reads.load(), 0u);
  ASSERT_TRUE(tree.Validate().ok());
  std::vector<ObjectId> all;
  ASSERT_TRUE(coupled_read(Rect(0, 0, 1, 1), &all));
  EXPECT_EQ(all.size(),
            kObjects + static_cast<uint64_t>(kWriters) * kInsertsPerWriter);
}

}  // namespace
}  // namespace burtree
