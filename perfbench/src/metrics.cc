#include "metrics.h"

#include <algorithm>

#include "common/metrics.h"

namespace perfbench {

namespace {

double Pct(std::vector<uint64_t> ns, double p) {
  return static_cast<double>(burtree::PercentileNs(ns, p)) / 1e3;
}

/// Per traced round (odd index), the mean rate of the untraced rounds on
/// either side over its own rate; the median of those ratios, minus 1, in
/// percent. A host stall that hits one round moves only its own ratios.
double TraceOverheadPct(const std::vector<double>& rounds) {
  std::vector<double> ratios;
  for (size_t i = 1; i + 1 < rounds.size(); i += 2) {
    ratios.push_back(Ratio((rounds[i - 1] + rounds[i + 1]) / 2, rounds[i]));
  }
  return ratios.empty() ? 0.0 : (Median(ratios) - 1.0) * 100.0;
}

}  // namespace

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double x = p * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(x);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (v[i + 1] - v[i]) * (x - static_cast<double>(i));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> SliceRates(const PhaseResult& r) {
  std::vector<double> out;
  const size_t n = r.samples.size();
  int64_t slice_start = r.start_ns;
  for (size_t i = 0; i < kSlices && n >= kSlices; ++i) {
    const size_t lo = n * i / kSlices;
    const size_t hi = n * (i + 1) / kSlices;
    const int64_t end = r.samples[hi - 1].done_ns;
    out.push_back(Ratio(static_cast<double>(hi - lo),
                        static_cast<double>(end - slice_start) / 1e9));
    slice_start = end;
  }
  return out;
}

std::vector<double> SlicePercentiles(const PhaseResult& r, int kind,
                                     double pct) {
  std::vector<uint64_t> lat;  // the kind's latencies in completion order
  for (const LatencySample& s : r.samples) {
    if (s.kind() == kind) lat.push_back(s.latency_ns());
  }
  const size_t n = lat.size();
  const size_t slices =
      std::max<size_t>(1, std::min(kSlices, n / kMinSliceOps));
  std::vector<double> out;
  for (size_t i = 0; i < slices && n > 0; ++i) {
    const auto first = lat.begin() + static_cast<long>(n * i / slices);
    const auto last = lat.begin() + static_cast<long>(n * (i + 1) / slices);
    out.push_back(Pct(std::vector<uint64_t>(first, last), pct));
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& r,
                                    const std::vector<double>& setups,
                                    size_t page_size) {
  auto io_total = [](const Counters& c) {
    return static_cast<double>(c.io.total());
  };
  // The least disturbed tenth of the slices: low latencies, high rates.
  auto best_latency = [&](int kind, double pct) {
    return Quantile(SlicePercentiles(r, kind, pct), kSliceQuantile);
  };
  const auto& upd = r.kinds[kUpdate].latency_ns;
  const auto& qry = r.kinds[kQuery].latency_ns;
  const double writes = static_cast<double>(
      r.kinds[kUpdate].tally.completed + r.kinds[kInsert].tally.completed +
      r.kinds[kDelete].tally.completed);
  const double page_writes = static_cast<double>(
      (r.run_end.io.tree.writes - r.before.io.tree.writes) +
      (r.run_end.io.hash.writes - r.before.io.hash.writes));
  const double log_bytes = static_cast<double>(
      r.run_end.wal.appended_bytes - r.before.wal.appended_bytes);
  const double ops = static_cast<double>(r.completed);
  return {
      {"setup_s", Median(setups), "s"},
      {"ops_per_s", Quantile(SliceRates(r), 1.0 - kSliceQuantile), "ops/s",
       r.samples.size()},
      {"update_p50_us", best_latency(kUpdate, 50), "us", upd.size()},
      {"update_p99_us", best_latency(kUpdate, 99), "us", upd.size()},
      {"query_p50_us", best_latency(kQuery, 50), "us", qry.size()},
      {"query_p99_us", best_latency(kQuery, 99), "us", qry.size()},
      {"io_per_op", Ratio(io_total(r.run_end) - io_total(r.before), ops),
       "accesses/op"},
      {"write_bytes_per_write",
       Ratio(log_bytes + page_writes * static_cast<double>(page_size),
             writes),
       "B/write"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const PhaseResult& r,
                                    const PhaseResult& traced,
                                    const SpanAnalysis& spans,
                                    const std::vector<SetupTimes>& setups,
                                    size_t page_size, bool durable) {
  const Counters& a = r.before;
  const Counters& b = r.timed_end;
  const double ops = static_cast<double>(r.completed);
  const double kops = ops / 1e3;
  auto per_kop = [&](uint64_t x0, uint64_t x1) {
    return Ratio(static_cast<double>(x1 - x0), kops);
  };
  auto per_op = [&](uint64_t x0, uint64_t x1) {
    return Ratio(static_cast<double>(x1 - x0), ops);
  };
  auto done = [&](int kind) {
    return static_cast<double>(r.kinds[kind].tally.completed);
  };
  const double updates = done(kUpdate);
  const double writes = updates + done(kInsert) + done(kDelete);
  auto span_mean = [&](SpanName n) {
    const SpanTotals& t = spans.by_name[n];
    return Ratio(t.total_us, static_cast<double>(t.count));
  };
  auto span_absent = [&](SpanName n) -> std::string {
    return spans.by_name[n].count == 0
               ? std::string("no ") + SpanNameString(n) + " spans recorded"
               : "";
  };
  auto kind_p = [&](int kind, double p, const char* name) {
    Metric m{name, Pct(r.kinds[kind].latency_ns, p), "us",
             r.kinds[kind].latency_ns.size()};
    if (m.samples == 0) {
      m.absent = std::string("no ") + OpKindName(kind) + " ops in the mix";
    }
    return m;
  };

  // Buffer pool: per-shard deltas.
  double hits = 0, misses = 0, evictions = 0, writebacks = 0, max_n = 0;
  for (size_t s = 0; s < b.pool.shards.size(); ++s) {
    const burtree::BufferStats& x = a.pool.shards[s];
    const burtree::BufferStats& y = b.pool.shards[s];
    hits += static_cast<double>(y.hits - x.hits);
    misses += static_cast<double>(y.misses - x.misses);
    evictions += static_cast<double>(y.evictions - x.evictions);
    writebacks += static_cast<double>(y.flushes - x.flushes);
    max_n = std::max(max_n, static_cast<double>((y.hits - x.hits) +
                                                (y.misses - x.misses)));
  }
  const double shards = static_cast<double>(b.pool.shards.size());

  const burtree::UpdatePathCounts& p0 = a.paths;
  const burtree::UpdatePathCounts& p1 = b.paths;
  const double paths = static_cast<double>(p1.total() - p0.total());
  auto path_share = [&](const char* name, uint64_t x0, uint64_t x1) {
    return Metric{name, Ratio(static_cast<double>(x1 - x0), paths), "share"};
  };

  double client_ns = 0, query_ns = 0;
  for (int k = 0; k < kOpKinds; ++k) {
    client_ns += r.kinds[k].tally.latency_ns_sum;
    if (k == kQuery || k == kKnn) query_ns += r.kinds[k].tally.latency_ns_sum;
  }

  std::vector<double> gen, build, warm;
  for (const SetupTimes& t : setups) {
    gen.push_back(t.generate_s);
    build.push_back(t.build_s);
    warm.push_back(t.warm_s);
  }

  const KindTally& uq = r.kinds[kUpdate].tally;
  const KindTally& qq = r.kinds[kQuery].tally;
  const char* via_ingest =
      "updates run on IngestPool workers, not on a client thread";

  std::vector<Metric> m = {
      // ingest
      {"ingest.batch_ops",
       Ratio(static_cast<double>(b.ingest.batched_ops - a.ingest.batched_ops),
             static_cast<double>(b.ingest.batches - a.ingest.batches)),
       "ops/batch"},
      {"ingest.abort_retries_per_kop",
       per_kop(a.ingest.abort_retries, b.ingest.abort_retries), "count/kop"},
      {"ingest.submit_us", span_mean(kIngestSubmit), "us"},
      {"ingest.worker_update_us",
       Ratio(spans.worker_update_us,
             static_cast<double>(traced.traced_batched_ops)),
       "us/op"},
      // cc: writes
      {"cc.update_self_us",
       Ratio(spans.by_name[kCcUpdate].self_us,
             static_cast<double>(spans.by_name[kCcUpdate].count)),
       "us", 0, durable ? via_ingest : ""},
      {"cc.dgl_acquisitions_per_op", per_op(a.lock.acquisitions,
                                            b.lock.acquisitions),
       "count/op"},
      {"cc.dgl_waits_per_kop", per_kop(a.lock.waits, b.lock.waits),
       "count/kop"},
      {"cc.dgl_aborts_per_kop", per_kop(a.lock.aborts, b.lock.aborts),
       "count/kop"},
      {"cc.latch_try_failure_ratio",
       Ratio(static_cast<double>(b.table.try_failures - a.table.try_failures),
             static_cast<double>(b.table.try_acquires - a.table.try_acquires)),
       "ratio"},
      {"cc.coupled_escalations_per_kop",
       per_kop(a.latch.coupled_escalations, b.latch.coupled_escalations),
       "count/kop"},
      {"cc.compound_smos_per_kop",
       per_kop(a.latch.compound_smos, b.latch.compound_smos), "count/kop"},
      // cc: reads
      {"cc.descent_restarts_per_kop",
       per_kop(a.latch.descent_restarts, b.latch.descent_restarts),
       "count/kop"},
      {"cc.optimistic_fallback_ratio",
       Ratio(static_cast<double>(b.latch.optimistic_fallbacks -
                                 a.latch.optimistic_fallbacks),
             static_cast<double>(
                 (b.latch.optimistic_queries - a.latch.optimistic_queries) +
                 (b.latch.optimistic_fallbacks -
                  a.latch.optimistic_fallbacks))),
       "ratio"},
      {"cc.pruned_query_ratio",
       Ratio(static_cast<double>(b.latch.pruned_queries -
                                 a.latch.pruned_queries),
             done(kQuery)),
       "ratio"},
      kind_p(kKnn, 50, "cc.knn_p50_us"),
      kind_p(kKnn, 99, "cc.knn_p99_us"),
      {"cc.query_time_share", Ratio(query_ns, client_ns), "share"},
      // cc: batches and churn
      {"cc.batch_fallback_ratio",
       Ratio(static_cast<double>(b.latch.batch_fallbacks -
                                 a.latch.batch_fallbacks),
             static_cast<double>(b.latch.batched_updates -
                                 a.latch.batched_updates)),
       "ratio"},
      kind_p(kInsert, 99, "cc.insert_p99_us"),
      kind_p(kDelete, 99, "cc.delete_p99_us"),
      // update strategy
      {"update.plan_us", span_mean(kUpdatePlan), "us", 0,
       span_absent(kUpdatePlan)},
      {"update.scoped_us", span_mean(kUpdateScoped), "us", 0,
       span_absent(kUpdateScoped)},
      {"update.full_us", span_mean(kUpdateFull), "us", 0,
       span_absent(kUpdateFull)},
      {"update.scoped_contention_ratio",
       Ratio(static_cast<double>(traced.timed_end.scoped_contended -
                                 traced.before.scoped_contended),
             static_cast<double>(traced.timed_end.scoped_calls -
                                 traced.before.scoped_calls)),
       "ratio"},
      path_share("update.path_in_place", p0.in_place, p1.in_place),
      path_share("update.path_extend", p0.extend, p1.extend),
      path_share("update.path_sibling", p0.sibling, p1.sibling),
      path_share("update.path_ascend", p0.ascend, p1.ascend),
      path_share("update.path_root_insert", p0.root_insert, p1.root_insert),
      path_share("update.path_top_down", p0.top_down, p1.top_down),
      // rtree
      {"rtree.leaf_splits_per_kop",
       per_kop(a.tree.leaf_splits, b.tree.leaf_splits), "count/kop"},
      {"rtree.internal_splits_per_kop",
       per_kop(a.tree.internal_splits, b.tree.internal_splits), "count/kop"},
      {"rtree.condenses_per_kop",
       per_kop(a.tree.underflow_condenses, b.tree.underflow_condenses),
       "count/kop"},
      {"rtree.reinserted_per_kop",
       per_kop(a.tree.reinserted_entries, b.tree.reinserted_entries),
       "count/kop"},
      {"rtree.height", static_cast<double>(r.final_height), "levels"},
      // summary
      {"summary.bytes", static_cast<double>(r.summary_bytes), "B"},
      // oid index
      {"oid_index.reads_per_update",
       Ratio(static_cast<double>(b.io.hash.reads - a.io.hash.reads), updates),
       "reads/update"},
      {"oid_index.writes_per_kop", per_kop(a.io.hash.writes, b.io.hash.writes),
       "count/kop"},
      // buffer pool
      {"buffer.hit_rate", Ratio(hits, hits + misses), "ratio"},
      {"buffer.accesses_per_op", Ratio(hits + misses, ops), "count/op"},
      {"buffer.evictions_per_op", Ratio(evictions, ops), "count/op"},
      {"buffer.writebacks_per_op", Ratio(writebacks, ops), "count/op"},
      {"buffer.shard_imbalance", Ratio(max_n * shards, hits + misses),
       "max/mean"},
      // storage
      {"storage.reads_per_op", per_op(a.io.tree.reads, b.io.tree.reads),
       "reads/op"},
      {"storage.writes_per_op", per_op(a.io.tree.writes, b.io.tree.writes),
       "writes/op"},
      {"storage.io_per_update",
       Ratio(static_cast<double>(uq.io), static_cast<double>(uq.io_calls)),
       "accesses/update", 0, durable ? via_ingest : ""},
      {"storage.io_per_query",
       Ratio(static_cast<double>(qq.io), static_cast<double>(qq.io_calls)),
       "accesses/query"},
      {"storage.bytes_per_object",
       Ratio(static_cast<double>(r.live_pages * page_size),
             static_cast<double>(r.final_objects)),
       "B/object"},
      // wal
      {"wal.records_per_write",
       Ratio(static_cast<double>(b.wal.records - a.wal.records), writes),
       "records/write"},
      {"wal.delta_image_ratio",
       Ratio(static_cast<double>(b.wal.delta_images - a.wal.delta_images),
             static_cast<double>(b.wal.images - a.wal.images)),
       "ratio"},
      {"wal.fsyncs_per_kop", per_kop(a.wal.fsyncs, b.wal.fsyncs),
       "count/kop"},
      {"wal.max_group_bytes", static_cast<double>(b.wal.max_group_bytes),
       "B"},
      {"wal.auto_scopes_per_kop", per_kop(a.wal.auto_scopes,
                                          b.wal.auto_scopes),
       "count/kop"},
      {"wal.checkpoints",
       static_cast<double>(b.wal.checkpoints - a.wal.checkpoints), "count"},
      {"wal.log_bytes_per_write",
       Ratio(static_cast<double>(b.wal.appended_bytes - a.wal.appended_bytes),
             writes),
       "B/write"},
      {"wal.durable_wait_ms",
       spans.by_name[kWalDurableWait].total_us / 1e3, "ms"},
      {"wal.checkpoint_ms", durable ? spans.by_name[kWalCheckpoint].total_us / 1e3
                                    : 0.0,
       "ms"},
      // set-up and tracing
      {"setup.generate_s", Median(gen), "s"},
      {"setup.build_s", Median(build), "s"},
      {"setup.warm_s", Median(warm), "s"},
      {"trace.overhead_pct", TraceOverheadPct(traced.round_ops_per_s), "%"},
  };
  return m;
}

}  // namespace perfbench
