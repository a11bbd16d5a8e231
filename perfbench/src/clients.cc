#include "clients.h"

#include <chrono>

#include "cc/backoff.h"
#include "common/bits.h"
#include "spans.h"
#include "storage/page_store.h"

namespace perfbench {

using burtree::Point;
using burtree::Status;
using burtree::StatusCode;

namespace {

// Sizes and mixes are fixed here so that every later change is measured on
// the same inputs; README.md explains why each workload exists.
const WorkloadSpec* Workloads() {
  static const WorkloadSpec specs[] = {
      [] {
        WorkloadSpec s;
        s.name = "tracking";
        s.update_pct = 90.0;
        s.query_max_dim = 0.01;
        s.buffer_fraction = 0.01;
        s.nominal_ops_per_s = 72000.0;
        return s;
      }(),
      [] {
        WorkloadSpec s;
        s.name = "read_mostly";
        s.update_pct = 20.0;
        s.knn_pct = 2.0;
        s.query_max_dim = 0.1;
        s.skew.kind = burtree::SkewKind::kHotspot;
        s.skew.hot_fraction = 0.05;
        s.skew.hot_prob = 0.9;
        // Pages map to the 8 shards by id, which does not split them
        // evenly: twice the tree keeps every shard from evicting.
        s.buffer_fraction = 2.0;
        s.warm_full_scan = true;
        s.nominal_ops_per_s = 19000.0;
        return s;
      }(),
      [] {
        WorkloadSpec s;
        s.name = "durable_ingest";
        s.update_pct = 75.0;
        s.insert_pct = 10.0;
        s.delete_pct = 10.0;
        s.query_max_dim = 0.01;
        s.durable = true;
        // Two gateway clients beside the two ingest workers: with four,
        // six busy threads shared four vCPUs, and update p99 measured the
        // scheduler (README.md, "Host noise").
        s.clients = 2;
        s.buffer_fraction = 0.05;
        s.nominal_ops_per_s = 40000.0;
        return s;
      }(),
      WorkloadSpec{},
  };
  return specs;
}

constexpr SpanName kOpSpans[kOpKinds] = {kOpUpdate, kOpInsert, kOpDelete,
                                         kOpQuery, kOpKnn};

}  // namespace

const char* OpKindName(int kind) {
  static const char* names[kOpKinds] = {"update", "insert", "delete",
                                        "query", "knn"};
  return kind >= 0 && kind < kOpKinds ? names[kind] : "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec* s = Workloads(); !s->name.empty(); ++s) {
    if (s->name == name) return s;
  }
  return nullptr;
}

Client::Client(const ClientEnv& env, uint32_t id,
               std::vector<LatencySample>* samples)
    : env_(env),
      id_(id),
      lo_(env.objects * id / env.clients),
      hi_(env.objects * (id + 1) / env.clients),
      rng_(burtree::Mix64(burtree::Mix64(env.seed) + id)),
      picker_(env.spec->skew),
      churn_(env.objects, id),
      samples_(samples) {
  samples_->clear();
}

void Client::ResetMeasurements() {
  samples_->clear();
  tally_ = {};
}

Client::Op Client::Draw() {
  const WorkloadSpec& s = *env_.spec;
  Op op;
  const double r = rng_.NextDouble() * 100.0;
  const double churn_end = s.update_pct + s.insert_pct + s.delete_pct;
  if (r < s.update_pct) {
    op.kind = kUpdate;
    const uint64_t k = picker_.Pick(rng_, hi_ - lo_, update_picks_++);
    const auto u = env_.positions->NextUpdateFor(lo_ + k, rng_);
    op.oid = u.oid;
    op.from = u.from;
    op.to = u.to;
  } else if (r < churn_end) {
    // A delete pick with no live churned object becomes an insert, so
    // the stream stays a function of the seed alone.
    if (r >= s.update_pct + s.insert_pct && churn_.CanDelete()) {
      const auto victim = churn_.TakeDelete(rng_);
      op.kind = kDelete;
      op.oid = victim.first;
      op.to = victim.second;
    } else {
      op.kind = kInsert;
      op.to = Point{rng_.NextDouble(), rng_.NextDouble()};
      op.oid = churn_.MintInsert(op.to);
    }
  } else if (r < churn_end + s.knn_pct) {
    op.kind = kKnn;
    op.to = Point{rng_.NextDouble(), rng_.NextDouble()};
  } else {
    op.kind = kQuery;
    op.window =
        burtree::WorkloadGenerator::QueryWindowFrom(rng_, s.query_max_dim);
  }
  return op;
}

void Client::Run(uint64_t ops) {
  if (Tracer::enabled()) Tracer::SetClientOp(0);
  for (uint64_t i = 0; i < ops && first_error_.ok(); ++i) {
    const Op op = Draw();
    const uint64_t op_id = (static_cast<uint64_t>(id_ + 1) << 40) | ++next_op_;
    ++tally_[op.kind].attempted;
    if (env_.ingest != nullptr &&
        (op.kind == kUpdate || op.kind == kInsert)) {
      Submit(op, op_id);
    } else {
      if (op.kind == kDelete) {
        // Deletes target only objects whose insert was acknowledged.
        for (auto& [oid, handle] : unacked_inserts_) {
          if (oid == op.oid) handle.Wait();
        }
      }
      RunDirect(op, op_id);
    }
    if (!window_.empty()) Reap(false);
  }
  while (!window_.empty()) Reap(true);
}

void Client::RunDirect(const Op& op, uint64_t op_id) {
  burtree::ConcurrentIndex& index = *env_.index;
  auto call = [&]() -> Status {
    switch (op.kind) {
      case kUpdate: {
        ScopedSpan span(kCcUpdate);
        return index.Update(op.oid, op.from, op.to);
      }
      case kInsert: {
        ScopedSpan span(kCcInsert);
        return index.Insert(op.oid, op.to);
      }
      case kDelete: {
        ScopedSpan span(kCcDelete);
        return index.Delete(op.oid, op.to);
      }
      case kKnn: {
        ScopedSpan span(kCcKnn);
        return index.Knn(op.to, kKnnK).status();
      }
      default: {
        ScopedSpan span(kCcQuery);
        return index.Query(op.window).status();
      }
    }
  };
  const bool tracing = Tracer::enabled();
  if (tracing) Tracer::SetClientOp(op_id);
  KindTally& t = tally_[op.kind];
  burtree::PageStore::ResetThreadIo();
  const int64_t start = Tracer::NowNs();
  Status st;
  {
    ScopedSpan root(kOpSpans[op.kind]);
    burtree::JitteredBackoff backoff(op_id);
    for (st = call(); st.code() == StatusCode::kAborted; st = call()) {
      ++t.retried;
      backoff.Sleep();
    }
  }
  const int64_t end = Tracer::NowNs();
  t.io += burtree::PageStore::thread_io();
  ++t.io_calls;
  if (tracing) Tracer::SetClientOp(0);
  if (st.ok()) {
    Sample(op.kind, end - start, end);
  } else {
    Fail(op.kind, st);
  }
}

void Client::Submit(const Op& op, uint64_t op_id) {
  while (window_.size() >= kGatewayWindow) Reap(true);
  Pending p;
  p.op = op;
  p.op_id = op_id;
  p.submit_start_ns = Tracer::NowNs();
  p.handle = op.kind == kUpdate
                 ? env_.ingest->SubmitUpdate(op.oid, op.from, op.to)
                 : env_.ingest->SubmitInsert(op.oid, op.to);
  p.submit_end_ns = Tracer::NowNs();
  if (op.kind == kInsert) unacked_inserts_.emplace_back(op.oid, p.handle);
  if (Tracer::enabled() && op.kind == kUpdate) {
    Tracer::Local().op_keys.emplace_back(op_id,
                                         UpdateKey{op.oid, op.from, op.to});
  }
  window_.push_back(std::move(p));
}

void Client::Reap(bool block) {
  if (block && !window_.front().acked) {
    Pending& oldest = window_.front();
    oldest.wait_start_ns = Tracer::NowNs();
    oldest.handle.Wait();
    oldest.wait_end_ns = Tracer::NowNs();
    Acknowledge(oldest, oldest.wait_end_ns);
  }
  const int64_t now = Tracer::NowNs();
  for (Pending& p : window_) {
    if (!p.acked && p.handle.done()) Acknowledge(p, now);
  }
  size_t done = 0;
  while (done < window_.size() && window_[done].acked) ++done;
  window_.erase(window_.begin(), window_.begin() + static_cast<long>(done));
}

void Client::Acknowledge(Pending& p, int64_t ack_ns) {
  p.acked = true;
  const Status st = p.handle.Wait();  // already done: returns at once
  if (p.op.kind == kInsert) {
    for (size_t i = 0; i < unacked_inserts_.size(); ++i) {
      if (unacked_inserts_[i].first == p.op.oid) {
        unacked_inserts_.erase(unacked_inserts_.begin() +
                               static_cast<long>(i));
        break;
      }
    }
  }
  if (Tracer::enabled()) {
    // The op's spans are recorded at acknowledgement: other ops of this
    // client ran while it was outstanding, so its spans cannot nest on
    // the client's span stack.
    Tracer::SetClientOp(p.op_id);
    const uint32_t root =
        Tracer::Record(kOpSpans[p.op.kind], p.submit_start_ns, ack_ns, 0);
    Tracer::Record(kIngestSubmit, p.submit_start_ns, p.submit_end_ns, root);
    if (p.wait_start_ns != 0) {
      Tracer::Record(kIngestWait, p.wait_start_ns, p.wait_end_ns, root);
    }
    Tracer::SetClientOp(0);
  }
  if (st.ok()) {
    Sample(p.op.kind, ack_ns - p.submit_start_ns, ack_ns);
  } else {
    Fail(p.op.kind, st);
  }
}

void Client::Sample(int kind, int64_t latency_ns, int64_t done_ns) {
  KindTally& t = tally_[kind];
  ++t.completed;
  t.latency_ns_sum += static_cast<double>(latency_ns);
  samples_->push_back(LatencySample{
      done_ns, (static_cast<uint64_t>(kind) << 56) |
                   static_cast<uint64_t>(latency_ns)});
}

void Client::Fail(int kind, const Status& st) {
  ++tally_[kind].failed;
  if (first_error_.ok()) first_error_ = st;
}

}  // namespace perfbench
