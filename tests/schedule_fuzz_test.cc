// Schedule fuzzer: seeded random interleavings across every
// (strategy × latch mode) combination, with the io_latency_in_op hook
// used as a tunable delay injector — each seed picks a different per-I/O
// sleep, which shifts every latch handoff and widens the explored
// interleaving space far beyond what a free-running test covers.
//
// Equivalence oracle: threads own disjoint oid ranges, so the final
// position of every object is determined by program order alone,
// independent of the interleaving. Each thread records the update ops it
// executed; replaying those records single-threaded on a twin fixture
// builds a reference tree, and the two indexes must answer a battery of
// window queries with identical oid sets (tree shapes may differ — any
// correct index over the same final positions answers the same).
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

struct RecordedUpdate {
  ObjectId oid;
  Point from;
  Point to;
};

// A wait-die abort escaping the DGL retry budget is a residual, not a
// bug: the abort fires before any tree mutation, so the op is safely
// re-runnable. The DGL layer's jittered backoff makes residuals rare,
// but a fuzz grid runs enough hot schedules that one must not fail the
// whole test.
template <typename Fn>
Status RetryAborted(Fn op) {
  for (;;) {
    const Status st = op();
    if (st.code() != StatusCode::kAborted) return st;
    std::this_thread::yield();
  }
}

class ScheduleFuzzTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, LatchMode>> {
};

TEST_P(ScheduleFuzzTest, SeededInterleavingsMatchReferenceTree) {
  const auto [kind, mode] = GetParam();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  constexpr uint64_t kObjects = 600;
  constexpr uint64_t kSeeds[] = {1, 2, 3};

  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExperimentConfig cfg;
    cfg.strategy = kind;
    cfg.page_size = 512;  // moderate fanout: updates do split
    cfg.workload.num_objects = kObjects;
    cfg.workload.seed = 1000 + seed;
    cfg.buffer_fraction = 0.2;  // most fetches hit the slept "disk"
    WorkloadGenerator workload(cfg.workload);

    StrategyFixture fx = MakeFixture(cfg);
    ASSERT_TRUE(BuildIndex(cfg, workload, &fx).ok());

    // The delay injector: per-I/O sleep charged inside the operation's
    // latches, varied per seed so every seed explores a different
    // schedule around each latch handoff.
    ConcurrencyOptions copts;
    copts.latch_mode = mode;
    copts.io_latency_in_op = true;
    copts.io_latency_us = 15 + (seed % 4) * 45;
    ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                          fx.executor.get(), copts);

    std::vector<std::vector<RecordedUpdate>> recorded(kThreads);
    std::vector<std::thread> threads;
    std::atomic<bool> ok{true};
    std::mutex error_mu;
    std::string first_error;
    auto record_error = [&](const Status& st) {
      std::lock_guard<std::mutex> g(error_mu);
      if (first_error.empty()) first_error = st.ToString();
      ok = false;
    };
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        Rng rng(seed * 1000 + static_cast<uint64_t>(t));
        const uint64_t lo = kObjects * t / kThreads;
        const uint64_t hi = kObjects * (t + 1) / kThreads;
        std::vector<Point> pos(
            workload.initial_positions().begin() + static_cast<long>(lo),
            workload.initial_positions().begin() + static_cast<long>(hi));
        for (int i = 0; i < kOpsPerThread; ++i) {
          if (rng.NextBool(0.8)) {
            const uint64_t k = rng.NextBelow(hi - lo);
            // Half short hops (scoped arms), half global jumps
            // (escalation arms) — both coupling paths must fuzz.
            const Point to =
                rng.NextBool(0.5)
                    ? Point{rng.NextDouble(), rng.NextDouble()}
                    : Point{std::min(1.0,
                                     pos[k].x + rng.NextDouble() * 0.01),
                            std::min(1.0,
                                     pos[k].y + rng.NextDouble() * 0.01)};
            const Status st =
                RetryAborted([&] { return index.Update(lo + k, pos[k], to); });
            if (!st.ok()) {
              record_error(st);
              return;
            }
            recorded[t].push_back(RecordedUpdate{lo + k, pos[k], to});
            pos[k] = to;
          } else {
            const Rect w = WorkloadGenerator::QueryWindowFrom(rng, 0.05);
            const Status st =
                RetryAborted([&] { return index.Query(w).status(); });
            if (!st.ok()) {
              record_error(st);
              return;
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_TRUE(ok.load()) << "worker op failed: " << first_error;

    // Single-thread reference tree: replay each thread's recorded
    // updates in program order on a twin fixture.
    StrategyFixture ref = MakeFixture(cfg);
    ASSERT_TRUE(BuildIndex(cfg, workload, &ref).ok());
    for (const auto& thread_ops : recorded) {
      for (const RecordedUpdate& u : thread_ops) {
        ASSERT_TRUE(ref.strategy->Update(u.oid, u.from, u.to).ok());
      }
    }

    // Equivalence: identical oid sets for a battery of windows, plus the
    // standard invariant audit on the concurrently built tree.
    Rng qrng(seed * 31 + 7);
    for (int q = 0; q < 25; ++q) {
      const Rect w = WorkloadGenerator::QueryWindowFrom(qrng, 0.25);
      std::vector<ObjectId> got, want;
      ASSERT_TRUE(fx.executor
                      ->Query(w, [&](ObjectId oid,
                                     const Rect&) { got.push_back(oid); })
                      .ok());
      ASSERT_TRUE(ref.executor
                      ->Query(w, [&](ObjectId oid,
                                     const Rect&) { want.push_back(oid); })
                      .ok());
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "window " << q;
    }
    EXPECT_TRUE(fx.system->tree().Validate().ok());
    EXPECT_EQ(testutil::FullSpaceCount(*fx.system), kObjects);
    if (kind != StrategyKind::kTopDown) {
      testutil::ExpectOidIndexConsistent(*fx.system, kObjects);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleFuzzTest,
    ::testing::Combine(::testing::Values(StrategyKind::kTopDown,
                                         StrategyKind::kLocalizedBottomUp,
                                         StrategyKind::kGeneralizedBottomUp),
                       ::testing::Values(LatchMode::kGlobal,
                                         LatchMode::kCoupled)),
    [](const auto& info) {
      return std::string(StrategyName(std::get<0>(info.param))) + "_" +
             LatchModeName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace burtree
