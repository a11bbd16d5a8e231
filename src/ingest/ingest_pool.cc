#include "ingest/ingest_pool.h"

#include "cc/backoff.h"
#include "common/logging.h"
#include "common/parse.h"

namespace burtree {

namespace {
/// Sanity ceilings for the spec values. strtoull used to accept
/// "workers=-1" and wrap it to 4294967295 worker threads; ParseUint64
/// rejects signs outright and these caps reject fat-fingered but
/// technically-unsigned values too.
constexpr uint64_t kMaxWorkers = 4096;
constexpr uint64_t kMaxBatch = 1u << 20;
}  // namespace

bool ParseIngestSpec(const std::string& spec, IngestOptions* out) {
  IngestOptions parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      // Bare integer shorthand: "ingest: 8" means workers=8.
      uint64_t v = 0;
      if (!ParseUint64(tok, &v, kMaxWorkers)) return false;
      parsed.workers = static_cast<uint32_t>(v);
      continue;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    uint64_t v = 0;
    if (key == "workers") {
      if (!ParseUint64(val, &v, kMaxWorkers)) return false;
      parsed.workers = static_cast<uint32_t>(v);
    } else if (key == "batch") {
      if (!ParseUint64(val, &v, kMaxBatch) || v == 0) return false;
      parsed.max_batch = static_cast<size_t>(v);
    } else {
      return false;
    }
  }
  *out = parsed;
  return true;
}

IngestPool::IngestPool(ConcurrentIndex* index, const IngestOptions& options)
    : index_(index), options_(options) {
  BURTREE_CHECK(options_.workers >= 1);
  if (options_.max_batch == 0) options_.max_batch = 1;
  queues_.reserve(options_.workers);
  for (uint32_t i = 0; i < options_.workers; ++i) {
    queues_.push_back(std::make_unique<MpscQueue>());
  }
  workers_.reserve(options_.workers);
  for (uint32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

IngestPool::~IngestPool() { Shutdown(); }

void IngestPool::Shutdown() {
  // The mutex serializes racing callers (a plain check-then-set let two
  // of them both reach join() — undefined behavior on std::thread); the
  // exchange picks exactly one to do the work, and the loser blocks on
  // the mutex until the winner's joins finish, so Shutdown() returning
  // always means the workers are gone.
  std::lock_guard<std::mutex> lk(shutdown_mu_);
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& q : queues_) q->Close();
  for (auto& w : workers_) w.join();
}

size_t IngestPool::QueueOf(ObjectId oid) const {
  // Same oid -> same queue -> same (single) consumer: per-object
  // submission order survives sharding. Contiguous client-owned oid
  // ranges spread evenly across the shards.
  return static_cast<size_t>(oid) % queues_.size();
}

UpdateHandle IngestPool::SubmitUpdate(ObjectId oid, const Point& from,
                                      const Point& to) {
  auto state = std::make_shared<UpdateHandleState>();
  PendingOp op;
  op.kind = PendingOp::Kind::kUpdate;
  op.oid = oid;
  op.from = from;
  op.to = to;
  op.state = state;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!queues_[QueueOf(oid)]->Push(std::move(op))) {
    state->Complete(Status::Aborted("ingest pool shut down"));
  }
  return UpdateHandle(std::move(state));
}

UpdateHandle IngestPool::SubmitInsert(ObjectId oid, const Point& pos) {
  auto state = std::make_shared<UpdateHandleState>();
  PendingOp op;
  op.kind = PendingOp::Kind::kInsert;
  op.oid = oid;
  op.to = pos;
  op.state = state;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!queues_[QueueOf(oid)]->Push(std::move(op))) {
    state->Complete(Status::Aborted("ingest pool shut down"));
  }
  return UpdateHandle(std::move(state));
}

void IngestPool::WorkerLoop(size_t worker) {
  MpscQueue& queue = *queues_[worker];
  std::vector<PendingOp> pending;
  std::vector<BatchUpdateOp> updates;
  std::vector<BatchInsertOp> inserts;
  std::vector<std::shared_ptr<UpdateHandleState>> update_states;
  std::vector<std::shared_ptr<UpdateHandleState>> insert_states;
  for (;;) {
    pending.clear();
    const size_t drained = queue.Drain(&pending, options_.max_batch);
    if (drained == 0) return;  // closed and empty
    uint64_t prev_max = max_batch_.load(std::memory_order_relaxed);
    while (drained > prev_max &&
           !max_batch_.compare_exchange_weak(prev_max, drained,
                                             std::memory_order_relaxed)) {
    }

    updates.clear();
    inserts.clear();
    update_states.clear();
    insert_states.clear();
    for (PendingOp& op : pending) {
      if (op.kind == PendingOp::Kind::kUpdate) {
        updates.push_back(BatchUpdateOp{op.oid, op.from, op.to, Status::OK()});
        update_states.push_back(std::move(op.state));
      } else {
        inserts.push_back(BatchInsertOp{op.oid, op.to, Status::OK()});
        insert_states.push_back(std::move(op.state));
      }
    }

    // Inserts run before updates: a client that inserts a new object and
    // then updates it can land both in one drain, and the insert must
    // win that race. (The reverse order — update then insert of one oid
    // — has no meaning, so splitting the kinds loses no ordering that
    // matters.)
    if (!inserts.empty()) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      batched_ops_.fetch_add(inserts.size(), std::memory_order_relaxed);
      // A residual lock-wait timeout past the DGL retry budget aborts the
      // whole batch before anything mutates; re-run it, like the
      // per-op harness retries aborted ops. Jittered backoff, not a
      // bare yield: N workers re-colliding on one hot granule would
      // otherwise re-run in lockstep and spin the budget away.
      JitteredBackoff backoff(worker);
      while (index_->InsertBatch(inserts).code() == StatusCode::kAborted) {
        abort_retries_.fetch_add(1, std::memory_order_relaxed);
        backoff.Sleep();
      }
      for (size_t i = 0; i < inserts.size(); ++i) {
        insert_states[i]->Complete(std::move(inserts[i].status));
      }
    }
    if (!updates.empty()) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      batched_ops_.fetch_add(updates.size(), std::memory_order_relaxed);
      JitteredBackoff backoff(worker);
      while (index_->UpdateBatch(updates).code() == StatusCode::kAborted) {
        abort_retries_.fetch_add(1, std::memory_order_relaxed);
        backoff.Sleep();
      }
      for (size_t i = 0; i < updates.size(); ++i) {
        update_states[i]->Complete(std::move(updates[i].status));
      }
    }
  }
}

IngestStats IngestPool::stats() const {
  IngestStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_ops = batched_ops_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.abort_retries = abort_retries_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace burtree
