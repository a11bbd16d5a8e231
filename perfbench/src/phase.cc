#include "phase.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/bits.h"

namespace perfbench {

using burtree::Status;

namespace {

// The 200,000 initial positions are one fixed data set, the scenario
// suite's default (12,911 tree pages of height 5). Trees built from
// different random data sets differ by up to a third in query I/O, which
// would swamp what --seed is meant to vary: the op stream.
constexpr uint64_t kDataSeed = 20030901;
constexpr size_t kBufferShards = 8;
constexpr uint32_t kIngestWorkers = 2;
constexpr size_t kIngestBatch = 32;

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(Tracer::NowNs() - start_ns) / 1e9;
}

/// Runs every client's next `ops` ops on its own thread. Returns when the
/// clients were released.
int64_t RunClients(Deployment& d, uint64_t ops) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (auto& c : d.clients) {
    Client* client = c.get();
    threads.emplace_back([client, ops, &go] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      client->Run(ops);
    });
  }
  const int64_t start = Tracer::NowNs();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return start;
}

Status FirstClientError(const Deployment& d) {
  for (const auto& c : d.clients) {
    if (!c->first_error().ok()) return c->first_error();
  }
  return Status::OK();
}

Counters Snapshot(Deployment& d) {
  Counters c;
  burtree::IndexSystem& sys = d.system();
  c.io = sys.SnapshotIo();
  c.pool = sys.buffer().pool_stats();
  c.lock = d.index->lock_manager().stats();
  c.latch = d.index->latch_stats();
  c.table = d.index->latch_table_stats();
  if (d.ingest) c.ingest = d.ingest->stats();
  if (sys.wal() != nullptr) c.wal = sys.wal()->stats();
  c.tree = sys.tree().stats();
  c.paths = d.path_counts();
  if (d.tracing_strategy) {
    c.scoped_calls = d.tracing_strategy->scoped_calls();
    c.scoped_contended = d.tracing_strategy->scoped_contended();
  }
  return c;
}

/// Compares the quiesced index with the benchmark's own record of every
/// acknowledged position: every stored object against the record
/// (conservation and positions), then a fixed sample of window queries
/// (oid sets, and counts through ConcurrentIndex) and kNN queries (distance
/// lists) against a brute-force scan of the record.
void CheckIndex(Deployment& d, const RunConfig& run, PhaseResult* r) {
  using burtree::ObjectId;
  using burtree::Rect;
  burtree::IndexSystem& sys = d.system();
  const Status v = sys.tree().Validate(/*check_min_fill=*/false);
  if (!v.ok()) r->check_failures.push_back("validate: " + v.ToString());

  std::vector<std::pair<ObjectId, burtree::Point>> live;
  // NextUpdateFor keeps the generator's positions current.
  const auto& positions = d.positions->initial_positions();
  for (ObjectId oid = 0; oid < positions.size(); ++oid) {
    live.emplace_back(oid, positions[oid]);
  }
  int64_t net = 0;
  for (const auto& c : d.clients) {
    live.insert(live.end(), c->churn().live().begin(),
                c->churn().live().end());
    net += c->churn().net();
  }
  std::sort(live.begin(), live.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  r->expected_objects =
      static_cast<uint64_t>(static_cast<int64_t>(run.objects) + net);

  std::vector<std::pair<ObjectId, Rect>> stored;
  const Status all = sys.tree().Query(
      Rect(0.0, 0.0, 1.0, 1.0),
      [&](ObjectId oid, const Rect& rect) { stored.emplace_back(oid, rect); });
  std::sort(stored.begin(), stored.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  r->final_objects = stored.size();
  if (!all.ok() || stored.size() != r->expected_objects ||
      live.size() != r->expected_objects) {
    r->check_failures.push_back(
        "conservation: index holds " + std::to_string(stored.size()) +
        ", expected " + std::to_string(r->expected_objects));
  } else {
    uint64_t misplaced = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (stored[i].first != live[i].first ||
          !(stored[i].second == Rect::FromPoint(live[i].second))) {
        ++misplaced;
      }
    }
    if (misplaced > 0) {
      r->check_failures.push_back(std::to_string(misplaced) +
                                  " objects are not where the record puts "
                                  "them");
    }
  }

  burtree::Rng rng(burtree::Mix64(run.seed) ^ 0xC0FFEEull);
  for (int i = 0; i < 48; ++i) {
    const double dim = i % 4 == 0 ? 0.1 : d.env.spec->query_max_dim;
    const Rect w = burtree::WorkloadGenerator::QueryWindowFrom(rng, dim);
    std::vector<ObjectId> got, want;
    const Status st = sys.tree().Query(
        w, [&](ObjectId oid, const Rect&) { got.push_back(oid); });
    for (const auto& [oid, p] : live) {
      if (w.Intersects(Rect::FromPoint(p))) want.push_back(oid);
    }
    std::sort(got.begin(), got.end());
    const auto counted = d.index->Query(w);
    if (!st.ok() || got != want || !counted.ok() ||
        counted.value() != want.size()) {
      r->check_failures.push_back("window query " + std::to_string(i) +
                                  ": " + std::to_string(got.size()) +
                                  " results, expected " +
                                  std::to_string(want.size()));
    }
  }
  for (int i = 0; i < 16; ++i) {
    const burtree::Point q{rng.NextDouble(), rng.NextDouble()};
    auto got = sys.tree().NearestNeighbors(q, kKnnK);
    std::vector<double> want;
    for (const auto& [oid, p] : live) {
      want.push_back(Rect::FromPoint(p).MinDistanceTo(q));
    }
    const size_t k = std::min(kKnnK, want.size());
    std::partial_sort(want.begin(), want.begin() + static_cast<long>(k),
                      want.end());
    want.resize(k);
    std::vector<double> got_d;
    if (got.ok()) {
      for (const auto& n : got.value()) got_d.push_back(n.distance);
    }
    std::sort(got_d.begin(), got_d.end());
    const auto counted = d.index->Knn(q, kKnnK);
    if (got_d != want || !counted.ok() || counted.value() != k) {
      r->check_failures.push_back("knn query " + std::to_string(i) +
                                  " disagrees with brute force");
    }
  }
}

}  // namespace

burtree::StatusOr<std::unique_ptr<Deployment>> Setup(
    const WorkloadSpec& spec, const RunConfig& run, bool traceable,
    std::vector<std::vector<LatencySample>>* samples, int64_t start_ns) {
  auto d = std::make_unique<Deployment>();
  burtree::ExperimentConfig cfg;
  cfg.workload.num_objects = run.objects;
  cfg.workload.max_move_distance = 0.03;  // paper Table 1 default
  cfg.workload.query_max_dim = spec.query_max_dim;
  cfg.workload.seed = kDataSeed;
  cfg.strategy = burtree::StrategyKind::kGeneralizedBottomUp;
  cfg.buffer_fraction = spec.buffer_fraction;
  cfg.buffer_shards = kBufferShards;
  cfg.latch_mode = burtree::LatchMode::kCoupled;
  cfg.read_mode = burtree::ReadMode::kOptimistic;
  if (spec.durable) {
    // Pages stay in the counted in-memory store; only the log goes to a
    // file. A run may write only inside its checkout, which here is a
    // shared virtio disk: with file-backed pages its slow periods moved
    // update p99 by 2-6x (README.md, "Host noise").
    cfg.storage.wal.enabled = true;
    cfg.storage.wal.dir = run.scratch_dir;
    // Shipped flush policy: group commit every 200 us, checkpoint at 64 MB.
    cfg.storage.wal.group_commit_us = 200;
    cfg.storage.wal.checkpoint_log_bytes = 64ull << 20;
  }

  d->positions = std::make_unique<burtree::WorkloadGenerator>(cfg.workload);
  d->times.generate_s = SecondsSince(start_ns);

  int64_t t = Tracer::NowNs();
  d->fx = burtree::MakeFixture(cfg);
  BURTREE_RETURN_IF_ERROR(burtree::BuildIndex(cfg, *d->positions, &d->fx));
  d->times.build_s = SecondsSince(t);
  d->tree_pages = d->system().file().live_pages();
  d->buffer_pages = d->system().buffer().capacity();
  d->height = d->system().tree().height();

  t = Tracer::NowNs();
  burtree::ConcurrencyOptions copts;
  copts.latch_mode = burtree::LatchMode::kCoupled;
  copts.read_mode = burtree::ReadMode::kOptimistic;
  copts.io_latency_us = 0;  // measure the program, not a latency model
  burtree::UpdateStrategy* strategy = d->fx.strategy.get();
  if (traceable) {
    d->tracing_strategy = std::make_unique<TracingStrategy>(strategy);
    strategy = d->tracing_strategy.get();
  }
  d->index = std::make_unique<burtree::ConcurrentIndex>(
      d->fx.system.get(), strategy, d->fx.executor.get(), copts);
  if (spec.durable) {
    burtree::IngestOptions iopts;
    iopts.workers = kIngestWorkers;
    iopts.max_batch = kIngestBatch;
    d->ingest = std::make_unique<burtree::IngestPool>(d->index.get(), iopts);
  }
  d->env.spec = &spec;
  d->env.seed = run.seed;
  d->env.clients = run.clients;
  d->env.objects = run.objects;
  d->env.positions = d->positions.get();
  d->env.index = d->index.get();
  d->env.ingest = d->ingest.get();
  for (uint32_t i = 0; i < run.clients; ++i) {
    d->clients.push_back(
        std::make_unique<Client>(d->env, i, &(*samples)[i]));
  }
  if (spec.warm_full_scan) {
    BURTREE_RETURN_IF_ERROR(
        d->fx.executor->Query(burtree::Rect(0.0, 0.0, 1.0, 1.0)).status());
  }
  RunClients(*d, kWarmOpsPerClient);
  BURTREE_RETURN_IF_ERROR(FirstClientError(*d));
  d->times.warm_s = SecondsSince(t);
  d->times.total_s = SecondsSince(start_ns);
  return d;
}

PhaseResult TimedPhase(Deployment& d, const RunConfig& run, uint64_t ops,
                       bool traced) {
  PhaseResult r;
  burtree::IndexSystem& sys = d.system();
  for (auto& c : d.clients) c->ResetMeasurements();
  r.before = Snapshot(d);
  if (!traced) {
    r.start_ns = RunClients(d, ops);
  } else {
    // Neighbouring rounds see nearly the same host, so comparing each
    // traced round with the untraced ones on either side of it measures
    // the tracing rather than the host's drift. Between rounds every op
    // is acknowledged and the ingest workers are idle.
    const uint64_t chunk = ops / kTraceRounds;
    for (int i = 0; i < kTraceRounds; ++i) {
      const bool on = i % 2 == 1;
      Tracer::Enable(on);
      const uint64_t batched = d.ingest ? d.ingest->stats().batched_ops : 0;
      const int64_t start = RunClients(d, chunk);
      const double seconds = SecondsSince(start);
      if (i == 0) r.start_ns = start;
      r.round_ops_per_s.push_back(
          static_cast<double>(chunk * d.clients.size()) / seconds);
      if (on && d.ingest) {
        r.traced_batched_ops += d.ingest->stats().batched_ops - batched;
      }
    }
  }
  r.elapsed_s = SecondsSince(r.start_ns);
  r.timed_end = Snapshot(d);
  Tracer::Enable(traced);
  // Run end: make the log durable, checkpoint, flush every dirty page, so
  // deferred writes reach the counters (as the paper's runs flush).
  int64_t t = Tracer::NowNs();
  if (sys.wal() != nullptr) {
    ScopedSpan span(kWalDurableWait);
    const Status st = sys.wal()->WaitDurable(sys.wal()->appended_lsn());
    if (!st.ok()) r.check_failures.push_back("wal: " + st.ToString());
  }
  r.durable_wait_ms = SecondsSince(t) * 1e3;
  t = Tracer::NowNs();
  {
    ScopedSpan span(kWalCheckpoint);
    const Status st = sys.Checkpoint();
    if (!st.ok()) r.check_failures.push_back("checkpoint: " + st.ToString());
  }
  r.checkpoint_ms = SecondsSince(t) * 1e3;
  t = Tracer::NowNs();
  {
    ScopedSpan span(kBufferFlushAll);
    const Status st = sys.FlushAll();
    if (!st.ok()) r.check_failures.push_back("flush: " + st.ToString());
  }
  r.flush_ms = SecondsSince(t) * 1e3;
  Tracer::Enable(false);
  r.run_end = Snapshot(d);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  const Status client_error = FirstClientError(d);
  if (!client_error.ok()) {
    r.check_failures.push_back("client op failed: " +
                               client_error.ToString());
  }
  for (const auto& c : d.clients) {
    for (int k = 0; k < kOpKinds; ++k) {
      const KindTally& t = c->tally()[k];
      KindTally& sum = r.kinds[k].tally;
      sum.attempted += t.attempted;
      sum.completed += t.completed;
      sum.failed += t.failed;
      sum.retried += t.retried;
      sum.io += t.io;
      sum.io_calls += t.io_calls;
      sum.latency_ns_sum += t.latency_ns_sum;
    }
    for (const LatencySample& s : c->samples()) {
      r.kinds[s.kind()].latency_ns.push_back(s.latency_ns());
    }
    r.samples.insert(r.samples.end(), c->samples().begin(),
                     c->samples().end());
  }
  std::sort(r.samples.begin(), r.samples.end(),
            [](const LatencySample& x, const LatencySample& y) {
              return x.done_ns < y.done_ns;
            });
  for (const KindResult& k : r.kinds) {
    r.attempted += k.tally.attempted;
    r.completed += k.tally.completed;
    r.failed += k.tally.failed;
  }
  CheckIndex(d, run, &r);
  r.live_pages = sys.file().live_pages();
  if (sys.oid_index() != nullptr) r.live_pages += sys.oid_index()->page_count();
  if (sys.summary() != nullptr) {
    r.summary_bytes =
        sys.summary()->table_bytes() + sys.summary()->bitvector_bytes();
  }
  r.final_height = sys.tree().height();
  return r;
}

}  // namespace perfbench
