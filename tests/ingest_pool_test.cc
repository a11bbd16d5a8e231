// IngestPool torture: many client threads hammer the per-shard MPSC
// queues with blocking and pipelined submissions — moves plus inserts of
// brand-new oids — while 8 workers group-execute batches against a
// coupled-mode GBU index with forced re-insertion on (the SMO-heaviest
// configuration). The pool must preserve per-oid submission order, never
// lose a completion, and leave a valid tree. Sizes stay TSan-friendly.
#include "ingest/ingest_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "concurrency_test_util.h"
#include "harness/experiment.h"
#include "ingest/mpsc_queue.h"

namespace burtree {
namespace {

TEST(ParseIngestSpecTest, AcceptsTheDocumentedForms) {
  IngestOptions opt;
  EXPECT_TRUE(ParseIngestSpec("", &opt));
  EXPECT_EQ(opt.workers, 0u);  // empty spec = disabled
  EXPECT_TRUE(ParseIngestSpec("4", &opt));
  EXPECT_EQ(opt.workers, 4u);
  EXPECT_TRUE(ParseIngestSpec("workers=8,batch=128", &opt));
  EXPECT_EQ(opt.workers, 8u);
  EXPECT_EQ(opt.max_batch, 128u);
  EXPECT_FALSE(ParseIngestSpec("workers=x", &opt));
  EXPECT_FALSE(ParseIngestSpec("batch=0", &opt));
  EXPECT_FALSE(ParseIngestSpec("bogus=1", &opt));
}

TEST(ParseIngestSpecTest, RejectsSignsWhitespaceAndOverflow) {
  // strtoull used to wrap "workers=-1" to 4294967295 worker threads and
  // quietly took "+8", " 8", and "0x8"; strict parsing rejects them all
  // without touching the output.
  IngestOptions opt;
  opt.workers = 7;
  EXPECT_FALSE(ParseIngestSpec("workers=-1", &opt));
  EXPECT_FALSE(ParseIngestSpec("-1", &opt));
  EXPECT_FALSE(ParseIngestSpec("workers=+8", &opt));
  EXPECT_FALSE(ParseIngestSpec("workers= 8", &opt));
  EXPECT_FALSE(ParseIngestSpec("workers=0x8", &opt));
  EXPECT_FALSE(ParseIngestSpec("workers=8 ", &opt));
  EXPECT_FALSE(ParseIngestSpec("workers=99999999999999999999", &opt));
  EXPECT_FALSE(ParseIngestSpec("workers=5000", &opt));  // > sanity cap
  EXPECT_FALSE(ParseIngestSpec("batch=2000000", &opt));
  EXPECT_EQ(opt.workers, 7u);  // rejected parses leave `out` untouched
}

TEST(MpscQueueTest, DrainsInOrderAndClosesCleanly) {
  MpscQueue q;
  for (int i = 0; i < 10; ++i) {
    PendingOp op;
    op.kind = PendingOp::Kind::kUpdate;
    op.oid = static_cast<ObjectId>(i);
    ASSERT_TRUE(q.Push(std::move(op)));
  }
  std::vector<PendingOp> out;
  EXPECT_EQ(q.Drain(&out, 4), 4u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].oid, 0u);
  EXPECT_EQ(out[3].oid, 3u);
  out.clear();
  EXPECT_EQ(q.Drain(&out, 100), 6u);
  EXPECT_EQ(out[0].oid, 4u);
  q.Close();
  PendingOp late;
  EXPECT_FALSE(q.Push(std::move(late)));
  out.clear();
  EXPECT_EQ(q.Drain(&out, 100), 0u);  // closed + empty
}

TEST(MpscQueueTest, DrainBlocksUntilPushArrives) {
  MpscQueue q;
  std::thread producer([&q]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    PendingOp op;
    op.oid = 42;
    q.Push(std::move(op));
  });
  std::vector<PendingOp> out;
  EXPECT_EQ(q.Drain(&out, 8), 1u);  // blocked until the push landed
  EXPECT_EQ(out[0].oid, 42u);
  producer.join();
}

TEST(UpdateHandleTest, EmptyHandleIsAnError) {
  UpdateHandle h;
  EXPECT_EQ(h.Wait().code(), StatusCode::kInvalidArgument);
}

struct PoolWorld {
  explicit PoolWorld(uint64_t objects, uint32_t workers,
                     LatchMode latch_mode = LatchMode::kCoupled) {
    cfg.strategy = StrategyKind::kGeneralizedBottomUp;
    cfg.workload.num_objects = objects;
    cfg.workload.seed = 83;
    cfg.forced_reinsert = true;  // SMO-heaviest configuration
    workload = std::make_unique<WorkloadGenerator>(cfg.workload);
    fx = MakeFixture(cfg);
    BURTREE_CHECK(BuildIndex(cfg, *workload, &fx).ok());
    ConcurrencyOptions copts;
    copts.io_latency_us = 0;
    copts.latch_mode = latch_mode;
    index = std::make_unique<ConcurrentIndex>(fx.system.get(),
                                              fx.strategy.get(),
                                              fx.executor.get(), copts);
    IngestOptions iopts;
    iopts.workers = workers;
    iopts.max_batch = 32;
    pool = std::make_unique<IngestPool>(index.get(), iopts);
  }
  ExperimentConfig cfg;
  std::unique_ptr<WorkloadGenerator> workload;
  StrategyFixture fx;
  std::unique_ptr<ConcurrentIndex> index;
  std::unique_ptr<IngestPool> pool;
};

TEST(IngestPoolTest, EightWorkerTortureWithInserts) {
  constexpr uint64_t kObjects = 2000;
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 150;
  constexpr int kInsertsPerClient = 25;
  PoolWorld w(kObjects, /*workers=*/8);

  std::vector<std::thread> clients;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      Rng rng(500 + t);
      const uint64_t lo = kObjects * t / kClients;
      const uint64_t hi = kObjects * (t + 1) / kClients;
      std::vector<Point> pos(
          w.workload->initial_positions().begin() + static_cast<long>(lo),
          w.workload->initial_positions().begin() + static_cast<long>(hi));
      // Each client owns a disjoint range of brand-new oids too, so an
      // insert and later updates of it can land in the same batch.
      ObjectId next_new = kObjects + static_cast<ObjectId>(t) * 1000;
      std::vector<Point> new_pos;
      std::vector<UpdateHandle> pipeline;
      for (int i = 0; i < kOpsPerClient; ++i) {
        if (i % (kOpsPerClient / kInsertsPerClient) == 0) {
          const Point p{rng.NextDouble(), rng.NextDouble()};
          if (!w.pool->Insert(next_new, p).ok()) {
            ok = false;
            return;
          }
          new_pos.push_back(p);
          ++next_new;
        }
        const bool move_new = !new_pos.empty() && rng.NextBool(0.3);
        ObjectId oid;
        Point from;
        const Point to{rng.NextDouble(), rng.NextDouble()};
        if (move_new) {
          const uint64_t k = rng.NextBelow(new_pos.size());
          oid = kObjects + static_cast<ObjectId>(t) * 1000 + k;
          from = new_pos[k];
          new_pos[k] = to;
        } else {
          const uint64_t k = rng.NextBelow(hi - lo);
          oid = lo + k;
          from = pos[k];
          pos[k] = to;
        }
        // Mix blocking submits with pipelined handles (wait every 4th):
        // per-oid order is preserved by the queues even when the client
        // races ahead of completion.
        pipeline.push_back(w.pool->SubmitUpdate(oid, from, to));
        if (pipeline.size() >= 4) {
          for (auto& h : pipeline) {
            if (!h.Wait().ok()) {
              ok = false;
              return;
            }
          }
          pipeline.clear();
        }
      }
      for (auto& h : pipeline) {
        if (!h.Wait().ok()) {
          ok = false;
          return;
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  ASSERT_TRUE(ok.load());
  w.pool->Shutdown();

  const IngestStats stats = w.pool->stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kClients) *
                (kOpsPerClient + kInsertsPerClient));
  EXPECT_EQ(stats.batched_ops, stats.submitted);
  EXPECT_GT(stats.batches, 0u);

  EXPECT_TRUE(w.fx.system->tree().Validate().ok());
  EXPECT_EQ(testutil::FullSpaceCount(*w.fx.system),
            kObjects + static_cast<uint64_t>(kClients) * kInsertsPerClient);
  // Every surviving object's hash entry points at its physical leaf.
  std::vector<ObjectId> oids;
  for (ObjectId oid = 0; oid < kObjects; ++oid) oids.push_back(oid);
  for (int t = 0; t < kClients; ++t) {
    for (int i = 0; i < kInsertsPerClient; ++i) {
      oids.push_back(kObjects + static_cast<ObjectId>(t) * 1000 +
                     static_cast<ObjectId>(i));
    }
  }
  testutil::ExpectOidIndexConsistent(w.fx.system->tree(),
                                     *w.fx.system->oid_index(), oids);
}

TEST(IngestPoolTest, ShutdownCompletesInFlightWork) {
  PoolWorld w(500, /*workers=*/2, LatchMode::kGlobal);
  const auto& pos = w.workload->initial_positions();
  std::vector<UpdateHandle> handles;
  Rng rng(7);
  std::vector<Point> cur(pos.begin(), pos.end());
  for (int i = 0; i < 200; ++i) {
    const ObjectId oid = rng.NextBelow(cur.size());
    const Point to{rng.NextDouble(), rng.NextDouble()};
    handles.push_back(w.pool->SubmitUpdate(oid, cur[oid], to));
    cur[oid] = to;
  }
  w.pool->Shutdown();  // must drain, not drop
  for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
  EXPECT_TRUE(w.fx.system->tree().Validate().ok());
  EXPECT_EQ(testutil::FullSpaceCount(*w.fx.system), 500u);
  // Second Shutdown is an idempotent no-op.
  w.pool->Shutdown();
}

// Regression: Shutdown used a plain bool check-then-set, so two racing
// callers could both reach join() — undefined behavior on std::thread.
// Now an exchange picks one closer and the mutex parks the loser until
// the winner's joins finish; both callers hammering it concurrently
// must come back clean with the workers gone.
TEST(IngestPoolTest, ConcurrentShutdownCallersBothReturnSafely) {
  for (int round = 0; round < 10; ++round) {
    PoolWorld w(300, /*workers=*/4, LatchMode::kGlobal);
    std::vector<UpdateHandle> handles;
    const auto& pos = w.workload->initial_positions();
    for (int i = 0; i < 50; ++i) {
      const ObjectId oid = static_cast<ObjectId>(i % 300);
      handles.push_back(
          w.pool->SubmitUpdate(oid, pos[oid], Point{0.5, 0.5}));
    }
    std::thread a([&] { w.pool->Shutdown(); });
    std::thread b([&] { w.pool->Shutdown(); });
    a.join();
    b.join();
    // Either caller returning means the drain finished: every handle
    // completed and no worker is left to lose.
    for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
    EXPECT_TRUE(w.fx.system->tree().Validate().ok());
  }
}

}  // namespace
}  // namespace burtree
