// Micro-benchmarks (google-benchmark): per-operation latency of the
// storage engine, the R-tree primitives (in-place and optimistic window
// queries), and the three update strategies.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "cc/latch_table.h"
#include "harness/experiment.h"
#include "storage/page_file.h"

namespace burtree {
namespace {

void BM_PageFileWrite(benchmark::State& state) {
  PageFile file(1024);
  const PageId id = file.Allocate();
  std::vector<uint8_t> buf(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(file.Write(id, buf.data()));
  }
}
BENCHMARK(BM_PageFileWrite);

void BM_BufferPoolHit(benchmark::State& state) {
  PageFile file(1024);
  BufferPool pool(&file, 16);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, true);
  for (auto _ : state) {
    auto res = pool.FetchPage(id);
    benchmark::DoNotOptimize(res);
    pool.UnpinPage(id, false);
  }
}
BENCHMARK(BM_BufferPoolHit);

// The optimistic descent's node read: a hit copies the 1 KB frame in one
// shard-latch section, with no pin.
void BM_BufferPoolCopyHit(benchmark::State& state) {
  PageFile file(1024);
  BufferPool pool(&file, 16);
  Page* p = pool.NewPage();
  const PageId id = p->page_id();
  pool.UnpinPage(id, true);
  std::vector<uint8_t> buf(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.CopyPage(id, buf.data()));
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BufferPoolCopyHit);

// Multi-threaded hit path: each google-benchmark thread hammers its own
// hot page; the Arg is the shard count, so Arg(1) measures single-latch
// contention and higher args show the sharding win. With `copy` the
// threads read through CopyPage instead of FetchPage + UnpinPage.
void RunConcurrentHits(benchmark::State& state, bool copy) {
  static PageFile* file = nullptr;
  static std::atomic<BufferPool*> pool{nullptr};
  if (state.thread_index() == 0) {
    file = new PageFile(1024);
    auto* p =
        new BufferPool(file, 1024, static_cast<size_t>(state.range(0)));
    // One hot page per thread; a fresh file allocates ids 0..threads-1.
    for (int t = 0; t < state.threads(); ++t) {
      Page* pg = p->NewPage();
      p->UnpinPage(pg->page_id(), true);
    }
    pool.store(p, std::memory_order_release);
  }
  BufferPool* p;
  while ((p = pool.load(std::memory_order_acquire)) == nullptr) {
    std::this_thread::yield();
  }
  const PageId id = static_cast<PageId>(state.thread_index());
  std::vector<uint8_t> buf(1024);
  for (auto _ : state) {
    if (copy) {
      benchmark::DoNotOptimize(p->CopyPage(id, buf.data()));
      benchmark::DoNotOptimize(buf.data());
      benchmark::ClobberMemory();
    } else {
      auto res = p->FetchPage(id);
      benchmark::DoNotOptimize(res);
      p->UnpinPage(id, false);
    }
  }
  // All threads hit the internal stop barrier before leaving the loop, so
  // thread 0 can tear down without racing the others.
  if (state.thread_index() == 0) {
    delete pool.exchange(nullptr);
    delete file;
    file = nullptr;
  }
}
void BM_ShardedPoolConcurrentHit(benchmark::State& state) {
  RunConcurrentHits(state, /*copy=*/false);
}
BENCHMARK(BM_ShardedPoolConcurrentHit)->Arg(1)->Arg(8)->Threads(8);

void BM_ShardedPoolConcurrentCopyHit(benchmark::State& state) {
  RunConcurrentHits(state, /*copy=*/true);
}
BENCHMARK(BM_ShardedPoolConcurrentCopyHit)->Arg(1)->Arg(8)->Threads(8);

void BM_RTreeInsert(benchmark::State& state) {
  TreeOptions opts;
  PageFile file(opts.page_size);
  BufferPool pool(&file, 1 << 16);
  RTree tree(&pool, opts);
  Rng rng(1);
  ObjectId oid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert(
        oid++,
        Rect::FromPoint(Point{rng.NextDouble(), rng.NextDouble()})));
  }
}
BENCHMARK(BM_RTreeInsert);

// A 50k-point tree, fully buffered, built once and shared by the query
// benches (they only read it). Each bench draws its 0.05 × 0.05 windows
// from the same seed, so the unlatched in-place descent, the optimistic
// snapshot descent and its S-coupled fallback read the same nodes.
struct QueryBenchTree {
  QueryBenchTree() : file(opts.page_size), pool(&file, 1 << 16),
                     tree(&pool, opts) {
    Rng rng(2);
    for (ObjectId i = 0; i < 50000; ++i) {
      (void)tree.Insert(
          i, Rect::FromPoint(Point{rng.NextDouble(), rng.NextDouble()}));
    }
  }
  TreeOptions opts;
  PageFile file;
  BufferPool pool;
  RTree tree;
};

RTree& SharedQueryTree() {
  static QueryBenchTree t;
  return t.tree;
}

Rect NextWindow(Rng& rng) {
  const double x = rng.NextDouble(0.0, 0.9);
  const double y = rng.NextDouble(0.0, 0.9);
  return Rect(x, y, x + 0.05, y + 0.05);
}

void BM_RTreeQuery(benchmark::State& state) {
  RTree& tree = SharedQueryTree();
  Rng rng(3);
  for (auto _ : state) {
    size_t n = 0;
    (void)tree.Query(NextWindow(rng), [&](ObjectId, const Rect&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_RTreeQuery);

// One optimistic attempt per query, as ConcurrentIndex runs it: fresh
// hooks over the latch table, every node copied under a try-S hold.
void BM_OptimisticQuery(benchmark::State& state) {
  RTree& tree = SharedQueryTree();
  Rng rng(3);
  LatchTable table;
  for (auto _ : state) {
    size_t n = 0;
    OptimisticReaderHooks hooks(&table);
    (void)tree.QueryOptimistic(NextWindow(rng),
                               [&](ObjectId, const Rect&) { ++n; }, &hooks);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_OptimisticQuery);

// The S-coupled fallback: every node read in place under a stripe S
// latch, children try-latched while the parent's latch is held.
void BM_CoupledQuery(benchmark::State& state) {
  RTree& tree = SharedQueryTree();
  Rng rng(3);
  LatchTable table;
  for (auto _ : state) {
    size_t n = 0;
    PageLatchSet latches(&table);
    ReaderHooks hooks(&latches);
    (void)tree.QueryCoupled(NextWindow(rng),
                            [&](ObjectId, const Rect&) { ++n; }, &hooks);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_CoupledQuery);

struct StrategyBenchState {
  explicit StrategyBenchState(StrategyKind kind) {
    cfg.strategy = kind;
    cfg.workload.num_objects = 50000;
    workload = std::make_unique<WorkloadGenerator>(cfg.workload);
    fx = MakeFixture(cfg);
    BURTREE_CHECK(BuildIndex(cfg, *workload, &fx).ok());
  }
  ExperimentConfig cfg;
  std::unique_ptr<WorkloadGenerator> workload;
  StrategyFixture fx;
};

void BM_UpdateTD(benchmark::State& state) {
  StrategyBenchState s(StrategyKind::kTopDown);
  for (auto _ : state) {
    const auto op = s.workload->NextUpdate();
    benchmark::DoNotOptimize(s.fx.strategy->Update(op.oid, op.from, op.to));
  }
}
BENCHMARK(BM_UpdateTD);

void BM_UpdateLBU(benchmark::State& state) {
  StrategyBenchState s(StrategyKind::kLocalizedBottomUp);
  for (auto _ : state) {
    const auto op = s.workload->NextUpdate();
    benchmark::DoNotOptimize(s.fx.strategy->Update(op.oid, op.from, op.to));
  }
}
BENCHMARK(BM_UpdateLBU);

void BM_UpdateGBU(benchmark::State& state) {
  StrategyBenchState s(StrategyKind::kGeneralizedBottomUp);
  for (auto _ : state) {
    const auto op = s.workload->NextUpdate();
    benchmark::DoNotOptimize(s.fx.strategy->Update(op.oid, op.from, op.to));
  }
}
BENCHMARK(BM_UpdateGBU);

void BM_HashIndexLookup(benchmark::State& state) {
  HashIndex idx;
  for (ObjectId i = 0; i < 100000; ++i) {
    idx.OnLeafEntryAdded(i, static_cast<PageId>(i % 4096));
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Lookup(rng.NextBelow(100000)));
  }
}
BENCHMARK(BM_HashIndexLookup);

void BM_SummaryFindAncestor(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.workload.num_objects = 50000;
  WorkloadGenerator workload(cfg.workload);
  auto fx = MakeFixture(cfg);
  BURTREE_CHECK(BuildIndex(cfg, workload, &fx).ok());
  auto leaf = fx.system->oid_index()->Lookup(7);
  BURTREE_CHECK(leaf.ok());
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.system->summary()->FindAncestorContaining(
        leaf.value(), Point{rng.NextDouble(), rng.NextDouble()}, 4));
  }
}
BENCHMARK(BM_SummaryFindAncestor);

}  // namespace
}  // namespace burtree

BENCHMARK_MAIN();
