#include "cc/concurrent_index.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cc/backoff.h"
#include "storage/wal/wal_manager.h"

namespace burtree {

namespace {

/// UpdateLatchScope over a PageLatchSet (writer mode).
class WriterScope final : public UpdateLatchScope {
 public:
  explicit WriterScope(PageLatchSet* set) : set_(set) {}
  bool Covers(PageId page) const override { return set_->Covers(page); }
  bool TryExtend(PageId page) override {
    return set_->TryExtendExclusive(page);
  }

 private:
  PageLatchSet* set_;
};

/// DGL acquisition with release-and-retry backoff, shared by
/// Update/Insert/Query: lock-wait timeouts (aborts) release everything
/// and retry with jittered exponential backoff (see JitteredBackoff for
/// why the jitter is load-bearing) up to a fixed budget, after which
/// the residual Abort escapes to the caller. Seeded from the op
/// timestamp: per-op stream, deterministic for a given ts (replayable).
template <typename AcquireFn>
Status AcquireDglWithRetry(LockManager* lm, uint64_t ts,
                           AcquireFn acquire) {
  JitteredBackoff backoff(ts);
  for (int attempt = 0;; ++attempt) {
    Status s = acquire();
    if (s.ok()) return s;
    lm->ReleaseAll(ts);
    if (attempt > 64) return s;
    backoff.Sleep();
  }
}

}  // namespace

const char* LatchModeName(LatchMode mode) {
  switch (mode) {
    case LatchMode::kGlobal: return "global";
    case LatchMode::kCoupled: return "coupled";
  }
  return "?";
}

bool ParseLatchMode(const std::string& s, LatchMode* out) {
  if (s == "global") {
    *out = LatchMode::kGlobal;
    return true;
  }
  if (s == "coupled") {
    *out = LatchMode::kCoupled;
    return true;
  }
  return false;
}

ConcurrentIndex::ConcurrentIndex(IndexSystem* system,
                                 UpdateStrategy* strategy,
                                 QueryExecutor* executor,
                                 const ConcurrencyOptions& options)
    : system_(system),
      strategy_(strategy),
      executor_(executor),
      options_(options),
      lock_manager_(options.lock),
      granules_(options.grid_bits),
      latch_table_(options.latch_stripes) {
  if (options_.io_latency_in_op) {
    // The tree "disk" sleeps per access while the operation's latches
    // are held; ChargeIoLatency then becomes a no-op.
    system_->file().set_io_latency_ns(options_.io_latency_us * 1000);
  }
}

LatchModeStats ConcurrentIndex::latch_stats() const {
  LatchModeStats s;
  s.scoped_updates = scoped_updates_.load(std::memory_order_relaxed);
  s.coupled_queries = coupled_queries_.load(std::memory_order_relaxed);
  s.coupled_escalations =
      coupled_escalations_.load(std::memory_order_relaxed);
  s.coupled_inserts = coupled_inserts_.load(std::memory_order_relaxed);
  s.compound_smos = compound_smos_.load(std::memory_order_relaxed);
  s.split_unsafe_plans =
      split_unsafe_plans_.load(std::memory_order_relaxed);
  s.descent_restarts = descent_restarts_.load(std::memory_order_relaxed);
  s.optimistic_queries =
      optimistic_queries_.load(std::memory_order_relaxed);
  s.optimistic_fallbacks =
      optimistic_fallbacks_.load(std::memory_order_relaxed);
  s.pruned_queries = pruned_queries_.load(std::memory_order_relaxed);
  s.coupled_reinserts =
      coupled_reinserts_.load(std::memory_order_relaxed);
  s.batched_updates = batched_updates_.load(std::memory_order_relaxed);
  s.batch_pages = batch_pages_.load(std::memory_order_relaxed);
  s.batch_fallbacks = batch_fallbacks_.load(std::memory_order_relaxed);
  s.deletes = deletes_.load(std::memory_order_relaxed);
  s.knn_queries = knn_queries_.load(std::memory_order_relaxed);
  return s;
}

void ConcurrentIndex::ChargeIoLatency(uint64_t ios) const {
  if (options_.io_latency_in_op) return;  // already slept at the PageStore
  if (options_.io_latency_us == 0 || ios == 0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(options_.io_latency_us * ios));
}

Status ConcurrentIndex::WalStatus() const {
  const WalManager* wal = system_->wal();
  return wal != nullptr ? wal->status() : Status::OK();
}

Status ConcurrentIndex::UpdateGlobal(ObjectId oid, const Point& from,
                                     const Point& to, uint64_t* ios) {
  std::unique_lock latch(latch_);
  // One WAL record per logical update; the scope's destructor appends it
  // before the tree latch releases. Inert when the system has no WAL.
  // The observer bracket (here and at every op site) records the op's
  // structural events and applies them in one burst when it closes —
  // destructors run innermost-first, so application always precedes the
  // WAL append and the latch release.
  WalOpScope wal_scope(system_->wal());
  DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
  PageStore::ResetThreadIo();
  auto result = strategy_->Update(oid, from, to);
  *ios = PageStore::thread_io();
  return result.status();
}

bool ConcurrentIndex::TryScopedUpdate(const UpdatePlan& plan, ObjectId oid,
                                      const Point& from, const Point& to,
                                      Status* out) {
  if (!plan.split_safe) {
    split_unsafe_plans_.fetch_add(1, std::memory_order_relaxed);
  }
  // The WAL scope opens before the page latches so every dirty unpin
  // inside UpdateScoped is captured; the explicit Commit appends the
  // record while the latches are still held (log-before-release).
  WalOpScope wal_scope(system_->wal());
  DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
  PageLatchSet latches(&latch_table_);
  std::vector<PageId> pages{plan.leaf};
  if (plan.parent != kInvalidPageId) pages.push_back(plan.parent);
  latches.AcquireExclusive(pages);
  WriterScope scope(&latches);
  auto result = strategy_->UpdateScoped(scope, plan, oid, from, to);
  obs_scope.Apply();
  wal_scope.Commit();
  if (result.status().code() == StatusCode::kLatchContention) {
    // UpdateScoped mutates nothing before returning LatchContention, so
    // the caller's escalation starts from a clean slate.
    return false;
  }
  scoped_updates_.fetch_add(1, std::memory_order_relaxed);
  *out = result.status();
  return true;
}

Status ConcurrentIndex::InsertCoupledWithRetry(
    ObjectId oid, const Rect& rect, uint64_t pending_token,
    std::vector<LeafEntry>* evicted,
    std::vector<uint64_t>* evicted_tokens) {
  // Generous budget: with 4096 stripes a descent's try-latches rarely
  // collide, and each retry first drains the stripe it collided on while
  // holding nothing, so the loop makes progress instead of spinning.
  constexpr int kAttempts = 64;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    PageId contended = kInvalidPageId;
    {
      WalOpScope wal_scope(system_->wal());
      DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
      PageLatchSet latches(&latch_table_);
      CoupledWriterHooks hooks(&latches);
      CoupledReinsert reinsert;
      reinsert.enabled =
          evicted != nullptr && system_->tree().options().forced_reinsert;
      const Status st =
          system_->tree().InsertCoupled(oid, rect, &hooks, &reinsert);
      // The completion marker rides the record only on success: an
      // aborted attempt may still log images (its reserved-then-freed
      // sibling pages), and recovery must keep re-inserting the object.
      if (st.ok() && pending_token != 0) {
        wal_scope.SetCompletedInsert(pending_token);
      }
      if (st.ok() && !reinsert.evicted.empty()) {
        // Forced re-insertion evicted entries from the full leaf. While
        // the leaf's X latch is still held: log one pending note per
        // evicted entry in the SAME record as the eviction (a crash in
        // the gap replays them from the notes), and open the reinsert
        // visibility bracket — the caller re-inserts the entries and
        // closes it (CoupledInsertWithReinsert).
        BURTREE_CHECK(evicted_tokens != nullptr);
        for (const LeafEntry& e : reinsert.evicted) {
          uint64_t tok = 0;
          if (wal_scope.active()) {
            tok = system_->wal()->NewToken();
            wal_scope.AddPendingInsert(tok, e.oid, e.rect);
          }
          evicted_tokens->push_back(tok);
        }
        coupled_reinserts_.fetch_add(reinsert.evicted.size(),
                                     std::memory_order_relaxed);
        *evicted = std::move(reinsert.evicted);
        reinsert_started_.fetch_add(1, std::memory_order_release);
      }
      obs_scope.Apply();
      wal_scope.Commit();  // append before the page latches release
      if (st.code() != StatusCode::kLatchContention) {
        if (st.ok()) {
          coupled_inserts_.fetch_add(1, std::memory_order_relaxed);
        }
        return st;
      }
      contended = hooks.last_contended();
    }
    descent_restarts_.fetch_add(1, std::memory_order_relaxed);
    if (contended != kInvalidPageId) {
      latch_table_.WaitForStripe(contended);
    }
  }
  return Status::LatchContention("coupled insert starved");
}

Status ConcurrentIndex::CoupledInsertWithReinsert(ObjectId oid,
                                                  const Rect& rect) {
  std::vector<LeafEntry> evicted;
  std::vector<uint64_t> tokens;
  std::shared_lock<DrainGate> gate(smo_gate_);
  const Status st = InsertCoupledWithRetry(oid, rect, /*pending_token=*/0,
                                           &evicted, &tokens);
  if (evicted.empty()) return st;  // no bracket opened

  // The bracket is open: the evicted objects are physically absent from
  // the tree until every one is back. Re-insert them under the same
  // shared gate hold; each success completes that entry's WAL pending
  // note. Eviction excluded on these (no recursion past one level).
  size_t done = 0;
  Status err = Status::OK();
  for (; done < evicted.size(); ++done) {
    const Status rst = InsertCoupledWithRetry(evicted[done].oid,
                                              evicted[done].rect,
                                              tokens[done]);
    if (rst.code() == StatusCode::kLatchContention) break;  // starved
    if (!rst.ok()) {
      err = rst;
      break;
    }
  }
  if (done == evicted.size() || !err.ok()) {
    reinsert_completed_.fetch_add(1, std::memory_order_release);
    return err.ok() ? st : err;
  }

  // A re-insert starved past the latch budget: finish under the
  // exclusive gate. Release our shared hold first (the exclusive
  // acquire drains all shared holders, ourselves included), and take
  // the gate DIRECTLY rather than via AcquireCompoundGate — the open
  // bracket is this thread's own, and every other compound op is
  // spinning outside the gate waiting for us to close it.
  gate.unlock();
  compound_smos_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<DrainGate> xgate(smo_gate_);
  for (; done < evicted.size(); ++done) {
    WalOpScope wal_scope(system_->wal());
    DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
    const Status rst =
        system_->tree().Insert(evicted[done].oid, evicted[done].rect);
    if (!rst.ok()) {
      err = rst;
      break;
    }
    if (tokens[done] != 0) wal_scope.SetCompletedInsert(tokens[done]);
  }
  reinsert_completed_.fetch_add(1, std::memory_order_release);
  return err.ok() ? st : err;
}

void ConcurrentIndex::AcquireCompoundGate(std::unique_lock<DrainGate>& lk) {
  for (;;) {
    lk.lock();
    if (reinsert_started_.load(std::memory_order_acquire) ==
        reinsert_completed_.load(std::memory_order_acquire)) {
      return;
    }
    // An open reinsert bracket: its holder may need this very gate to
    // finish a starved re-insert, so never wait while holding it.
    lk.unlock();
    std::this_thread::yield();
  }
}

Status ConcurrentIndex::CoupledEscalatedUpdate(ObjectId oid,
                                               const Point& from,
                                               const Point& to,
                                               CompoundNeed* needs,
                                               uint64_t* pending_token) {
  (void)from;
  *needs = CompoundNeed::kNone;
  *pending_token = 0;
  RTree& tree = system_->tree();
  const Rect new_rect = IndexSystem::PointRect(to);

  // Phase 1: bottom-up removal at the indexed leaf, its latch held. The
  // blocking single-page acquisition is safe (holding nothing); the
  // object may have been relocated between the index probe and the
  // latch, in which case re-probe.
  constexpr int kRemoveAttempts = 32;
  bool removed = false;
  for (int attempt = 0; attempt < kRemoveAttempts && !removed; ++attempt) {
    auto leaf_or = system_->oid_index()->Lookup(oid);
    if (!leaf_or.ok()) {
      if (leaf_or.status().code() == StatusCode::kNotFound) {
        // A concurrent split or sibling shift publishes its oid-index
        // move as remove-then-add (two stripe-mutex sections), so an
        // unlatched probe can land in the gap and miss an object that
        // is firmly in the tree. Transient by construction: yield and
        // re-probe; a persistent miss falls through to the compound
        // path, whose exclusive gate makes the lookup authoritative.
        std::this_thread::yield();
        continue;
      }
      return leaf_or.status();
    }
    const PageId leaf_id = leaf_or.value();
    WalOpScope wal_scope(system_->wal());
    DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
    PageLatchSet latches(&latch_table_);
    latches.AcquireExclusive(leaf_id);
    PageGuard g = PageGuard::Fetch(tree.pool(), leaf_id);
    NodeView v(g.data(), tree.options().page_size,
               tree.options().parent_pointers);
    if (!v.is_leaf() || v.FindOidSlot(oid) < 0) continue;  // moved: retry
    if (leaf_id != tree.root() &&
        v.count() <= tree.MinFill(/*leaf=*/true)) {
      // Removal would underflow: condense-with-reinserts touches an
      // unboundable page set — the one genuinely compound case.
      *needs = CompoundNeed::kFullUpdate;
      return Status::OK();
    }
    g.Release();
    // The removal record carries a pending-reinsert note: if the crash
    // lands between the two phases, recovery re-inserts the object from
    // the token's (oid, rect) rather than losing it.
    if (wal_scope.active()) {
      *pending_token = system_->wal()->NewToken();
      wal_scope.SetPendingInsert(*pending_token, oid, new_rect);
    }
    const Status rs = tree.RemoveFromLeafNoCondense(leaf_id, oid);
    obs_scope.Apply();
    wal_scope.Commit();  // append before the leaf latch releases
    BURTREE_RETURN_IF_ERROR(rs);
    removed = true;
  }
  if (!removed) {
    *needs = CompoundNeed::kFullUpdate;  // livelocked: drain and re-run
    return Status::OK();
  }

  // Phase 2: latch-coupled re-insert from the root. Object already
  // removed, so a starved insert must still complete under the gate.
  const Status st = InsertCoupledWithRetry(oid, new_rect, *pending_token);
  if (st.code() == StatusCode::kLatchContention) {
    *needs = CompoundNeed::kInsertOnly;
    return Status::OK();
  }
  if (st.ok()) strategy_->RecordEscalatedPath(UpdatePath::kRootInsert);
  return st;
}

Status ConcurrentIndex::UpdateCoupled(ObjectId oid, const Point& from,
                                      const Point& to, uint64_t* ios) {
  PageStore::ResetThreadIo();
  CompoundNeed needs = CompoundNeed::kFullUpdate;
  uint64_t pending_token = 0;
  {
    std::shared_lock<DrainGate> gate(smo_gate_);
    const UpdatePlan plan = strategy_->PlanUpdate(oid, from, to);
    if (plan.leaf_local) {
      Status scoped_status;
      if (TryScopedUpdate(plan, oid, from, to, &scoped_status)) {
        *ios = PageStore::thread_io();
        return scoped_status;
      }
    }
    // Escalation without any tree-wide latch.
    if (strategy_->SupportsCoupledEscalation()) {
      coupled_escalations_.fetch_add(1, std::memory_order_relaxed);
      Status st =
          CoupledEscalatedUpdate(oid, from, to, &needs, &pending_token);
      if (needs == CompoundNeed::kNone) {
        *ios = PageStore::thread_io();
        return st;
      }
    }
  }
  // Compound structure modification: drain all coupled traffic (every
  // coupled operation holds the gate shared), then run the stock
  // single-threaded code. The acquire waits out any open reinsert
  // bracket so the strategy's oid lookups are authoritative.
  compound_smos_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<DrainGate> xgate(smo_gate_, std::defer_lock);
  AcquireCompoundGate(xgate);
  WalOpScope wal_scope(system_->wal());
  DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
  if (needs == CompoundNeed::kInsertOnly) {
    const Status st =
        system_->tree().Insert(oid, IndexSystem::PointRect(to));
    if (st.ok()) {
      // Completes the phase-1 removal record's pending reinsert.
      if (pending_token != 0) wal_scope.SetCompletedInsert(pending_token);
      strategy_->RecordEscalatedPath(UpdatePath::kRootInsert);
    }
    *ios = PageStore::thread_io();
    return st;
  }
  auto result = strategy_->Update(oid, from, to);
  *ios = PageStore::thread_io();
  return result.status();
}

Status ConcurrentIndex::Update(ObjectId oid, const Point& from,
                               const Point& to) {
  BURTREE_RETURN_IF_ERROR(WalStatus());
  const uint64_t ts = NextTs();
  BURTREE_RETURN_IF_ERROR(AcquireDglWithRetry(&lock_manager_, ts, [&]() {
    return AcquireUpdateLocks(&lock_manager_, granules_, ts, from, to);
  }));

  uint64_t ios = 0;
  const Status op_status = options_.latch_mode == LatchMode::kGlobal
                               ? UpdateGlobal(oid, from, to, &ios)
                               : UpdateCoupled(oid, from, to, &ios);
  ChargeIoLatency(ios);
  lock_manager_.ReleaseAll(ts);
  return op_status;
}

Status ConcurrentIndex::Insert(ObjectId oid, const Point& pos) {
  BURTREE_RETURN_IF_ERROR(WalStatus());
  const uint64_t ts = NextTs();
  BURTREE_RETURN_IF_ERROR(AcquireDglWithRetry(&lock_manager_, ts, [&]() {
    return AcquireInsertLocks(&lock_manager_, granules_, ts, pos);
  }));

  PageStore::ResetThreadIo();
  Status op_status;
  if (options_.latch_mode == LatchMode::kGlobal) {
    std::unique_lock latch(latch_);
    WalOpScope wal_scope(system_->wal());
    DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
    op_status = system_->Insert(oid, pos);
  } else {
    // Owns the shared gate internally; with forced re-insertion
    // configured it also runs the eviction + re-insert lifecycle.
    op_status = CoupledInsertWithReinsert(oid, IndexSystem::PointRect(pos));
    if (op_status.code() == StatusCode::kLatchContention) {
      compound_smos_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<DrainGate> xgate(smo_gate_, std::defer_lock);
      AcquireCompoundGate(xgate);
      WalOpScope wal_scope(system_->wal());
      DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
      op_status = system_->Insert(oid, pos);
    }
  }
  ChargeIoLatency(PageStore::thread_io());
  lock_manager_.ReleaseAll(ts);
  return op_status;
}

Status ConcurrentIndex::Delete(ObjectId oid, const Point& pos) {
  BURTREE_RETURN_IF_ERROR(WalStatus());
  const uint64_t ts = NextTs();
  // An insert's mirror image at the DGL layer: IX root + X on the one
  // cell whose population changes.
  BURTREE_RETURN_IF_ERROR(AcquireDglWithRetry(&lock_manager_, ts, [&]() {
    return AcquireInsertLocks(&lock_manager_, granules_, ts, pos);
  }));

  PageStore::ResetThreadIo();
  const Rect rect = IndexSystem::PointRect(pos);
  Status op_status;
  if (options_.latch_mode == LatchMode::kGlobal) {
    std::unique_lock latch(latch_);
    WalOpScope wal_scope(system_->wal());
    DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
    op_status = system_->tree().Delete(oid, rect);
  } else {
    // Exactly the underflow-condense compound path: drain all coupled
    // traffic (waiting out any open reinsert bracket), then run the
    // stock single-threaded delete.
    compound_smos_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<DrainGate> xgate(smo_gate_, std::defer_lock);
    AcquireCompoundGate(xgate);
    WalOpScope wal_scope(system_->wal());
    DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
    op_status = system_->tree().Delete(oid, rect);
  }
  if (op_status.ok()) deletes_.fetch_add(1, std::memory_order_relaxed);
  ChargeIoLatency(PageStore::thread_io());
  lock_manager_.ReleaseAll(ts);
  return op_status;
}

StatusOr<size_t> ConcurrentIndex::Knn(const Point& query, size_t k) {
  PageStore::ResetThreadIo();
  StatusOr<std::vector<RTree::Neighbor>> result = [&]() {
    if (options_.latch_mode == LatchMode::kGlobal) {
      // Updates hold the tree-wide latch exclusively, so a shared hold
      // gives the latch-free best-first descent a quiescent tree.
      std::shared_lock latch(latch_);
      return system_->tree().NearestNeighbors(query, k);
    }
    compound_smos_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<DrainGate> xgate(smo_gate_, std::defer_lock);
    AcquireCompoundGate(xgate);
    return system_->tree().NearestNeighbors(query, k);
  }();
  ChargeIoLatency(PageStore::thread_io());
  if (!result.ok()) return result.status();
  knn_queries_.fetch_add(1, std::memory_order_relaxed);
  return result.value().size();
}

StatusOr<size_t> ConcurrentIndex::QueryGlobal(const Rect& window,
                                              uint64_t* ios) {
  std::shared_lock latch(latch_);
  PageStore::ResetThreadIo();
  StatusOr<size_t> result = executor_->Query(window);
  *ios = PageStore::thread_io();
  return result;
}

StatusOr<size_t> ConcurrentIndex::QueryCoupled(const Rect& window,
                                               uint64_t* ios) {
  PageStore::ResetThreadIo();
  // Attempt ladder: the version-validated snapshot descent first — its
  // first 24 attempts on the summary-pruned, epoch-validated plan, then
  // unpruned (the plan may keep going stale under a split storm) — and,
  // once those starve, the root-anchored S-coupled descent, which reads
  // every link under its parent's latch.
  constexpr int kAttempts = 64;
  constexpr int kOptimisticAttempts = 32;
  constexpr int kPrunedAttempts = 24;
  {
    std::shared_lock<DrainGate> gate(smo_gate_);
    bool fell_back = false;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      if (attempt > 0) {
        descent_restarts_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::microseconds(1u << std::min(attempt, 7)));
      }
      // Reinsert visibility bracket, read side: between a forced
      // re-insertion's eviction and the completion of its re-inserts
      // the evicted objects are physically absent, so a scan in the gap
      // would miss objects that are logically present. Back off until
      // the bracket closes — releasing the gate while waiting, because
      // the bracket holder may need the gate's exclusive side to finish
      // a starved re-insert.
      const uint64_t bracket =
          reinsert_started_.load(std::memory_order_acquire);
      if (bracket != reinsert_completed_.load(std::memory_order_acquire)) {
        gate.unlock();
        std::this_thread::yield();
        gate.lock();
        continue;
      }
      const bool optimistic = attempt < kOptimisticAttempts;
      if (!optimistic && !fell_back) {
        fell_back = true;
        optimistic_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
      const bool pruned = attempt < kPrunedAttempts;
      StatusOr<size_t> result = [&]() -> StatusOr<size_t> {
        if (optimistic) {
          OptimisticReaderHooks hooks(&latch_table_);
          return executor_->QueryOptimistic(window, &hooks, nullptr,
                                            pruned);
        }
        PageLatchSet latches(&latch_table_);
        ReaderHooks hooks(&latches);
        size_t matches = 0;
        BURTREE_RETURN_IF_ERROR(system_->tree().QueryCoupled(
            window, [&](ObjectId, const Rect&) { ++matches; }, &hooks));
        return matches;
      }();
      if (result.status().code() == StatusCode::kLatchContention) {
        continue;
      }
      // Bracket re-check: a re-insertion may have evicted mid-scan. Its
      // `started` bump happens under the evicting leaf's X latch, so if
      // this scan observed any post-eviction page the bump is visible
      // here (X-release → S/snapshot-acquire ordering on the stripe).
      if (reinsert_started_.load(std::memory_order_acquire) != bracket) {
        continue;
      }
      coupled_queries_.fetch_add(1, std::memory_order_relaxed);
      if (result.ok() && optimistic) {
        optimistic_queries_.fetch_add(1, std::memory_order_relaxed);
        if (pruned && executor_->use_summary() &&
            system_->tree().root_level() >= 1) {
          pruned_queries_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      *ios = PageStore::thread_io();
      return result;
    }
  }
  // Starved past the retry budget: drain and run single-threaded. The
  // acquire waits out any open reinsert bracket (never while holding
  // the gate) so the drained scan sees every logically present object.
  compound_smos_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<DrainGate> xgate(smo_gate_, std::defer_lock);
  AcquireCompoundGate(xgate);
  StatusOr<size_t> result = executor_->Query(window);
  *ios = PageStore::thread_io();  // includes the aborted coupled attempts
  return result;
}

StatusOr<size_t> ConcurrentIndex::Query(const Rect& window) {
  const uint64_t ts = NextTs();
  BURTREE_RETURN_IF_ERROR(AcquireDglWithRetry(&lock_manager_, ts, [&]() {
    return AcquireQueryLocks(&lock_manager_, granules_, ts, window);
  }));

  uint64_t ios = 0;
  StatusOr<size_t> result = options_.latch_mode == LatchMode::kGlobal
                                ? QueryGlobal(window, &ios)
                                : QueryCoupled(window, &ios);
  ChargeIoLatency(ios);
  lock_manager_.ReleaseAll(ts);
  return result;
}

Status ConcurrentIndex::UpdateBatch(std::vector<BatchUpdateOp>& ops) {
  if (ops.empty()) return Status::OK();
  if (const Status wal = WalStatus(); !wal.ok()) {
    for (BatchUpdateOp& op : ops) op.status = wal;
    return wal;
  }
  const uint64_t ts = NextTs();

  // One DGL round trip for the whole batch: the union of every op's
  // source and destination cells, sorted + deduplicated so the
  // acquisition respects the global ascending-cell order.
  std::vector<uint64_t> cells;
  cells.reserve(ops.size() * 2);
  for (const BatchUpdateOp& op : ops) {
    cells.push_back(granules_.CellOf(op.from));
    cells.push_back(granules_.CellOf(op.to));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  const Status dgl = AcquireDglWithRetry(&lock_manager_, ts, [&]() {
    return AcquireBatchUpdateLocks(&lock_manager_, ts, cells);
  });
  if (!dgl.ok()) {
    // Nothing mutated: stamp every op so the caller can retry the batch.
    for (BatchUpdateOp& op : ops) op.status = dgl;
    return dgl;
  }
  batched_updates_.fetch_add(ops.size(), std::memory_order_relaxed);

  Status first_error;
  auto record = [&](BatchUpdateOp& op, const Status& st) {
    op.status = st;
    if (!st.ok() && first_error.ok()) first_error = st;
  };

  uint64_t ios = 0;
  PageStore::ResetThreadIo();
  if (options_.latch_mode == LatchMode::kGlobal) {
    // The whole batch is one page group: one exclusive tree-latch hold
    // and one WAL record amortized across every op.
    std::unique_lock latch(latch_);
    WalOpScope wal_scope(system_->wal());
    DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
    for (BatchUpdateOp& op : ops) {
      record(op, strategy_->Update(op.oid, op.from, op.to).status());
      // Each op plans against the oid index and summary, and an earlier
      // op in the batch may have moved a later op's object (sibling
      // shift, split): apply per op so every plan sees fresh views.
      obs_scope.Apply();
    }
    wal_scope.Commit();
    batch_pages_.fetch_add(1, std::memory_order_relaxed);
    ios = PageStore::thread_io();
  } else {
    // Plans are computed for the whole batch up front, so two ops on
    // one oid would both target the pre-batch leaf and could reorder
    // across groups; only the first occurrence joins group execution,
    // the rest run per-op afterwards in submission order.
    struct Planned {
      BatchUpdateOp* op;
      UpdatePlan plan;
    };
    std::vector<Planned> local;
    std::vector<BatchUpdateOp*> fallback;
    std::vector<BatchUpdateOp*> deferred;
    local.reserve(ops.size());
    std::unordered_set<ObjectId> seen;
    seen.reserve(ops.size());

    {
      std::shared_lock<DrainGate> gate(smo_gate_);
      for (BatchUpdateOp& op : ops) {
        if (!seen.insert(op.oid).second) {
          deferred.push_back(&op);
          continue;
        }
        const UpdatePlan plan = strategy_->PlanUpdate(op.oid, op.from, op.to);
        if (plan.leaf_local) {
          local.push_back({&op, plan});
        } else {
          fallback.push_back(&op);
        }
      }
      std::stable_sort(local.begin(), local.end(),
                       [](const Planned& a, const Planned& b) {
                         return a.plan.leaf < b.plan.leaf;
                       });
      size_t i = 0;
      while (i < local.size()) {
        size_t j = i;
        while (j < local.size() && local[j].plan.leaf == local[i].plan.leaf) {
          ++j;
        }
        // One WAL record + one sorted exclusive latch acquisition for
        // every update destined for this leaf (the scope opens before
        // the latches so all dirty unpins are captured; Commit appends
        // while they are still held — log-before-release).
        WalOpScope wal_scope(system_->wal());
        DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
        PageLatchSet latches(&latch_table_);
        std::vector<PageId> pages;
        pages.reserve(2 * (j - i));
        for (size_t k = i; k < j; ++k) {
          pages.push_back(local[k].plan.leaf);
          if (local[k].plan.parent != kInvalidPageId) {
            pages.push_back(local[k].plan.parent);
          }
        }
        latches.AcquireExclusive(pages);
        WriterScope scope(&latches);
        for (size_t k = i; k < j; ++k) {
          if (!local[k].plan.split_safe) {
            split_unsafe_plans_.fetch_add(1, std::memory_order_relaxed);
          }
          auto result =
              strategy_->UpdateScoped(scope, local[k].plan, local[k].op->oid,
                                      local[k].op->from, local[k].op->to);
          if (result.status().code() == StatusCode::kLatchContention) {
            // Nothing mutated for THIS op (UpdateScoped's contract);
            // earlier ops in the group committed into the shared record.
            fallback.push_back(local[k].op);
          } else {
            scoped_updates_.fetch_add(1, std::memory_order_relaxed);
            record(*local[k].op, result.status());
          }
        }
        obs_scope.Apply();
        wal_scope.Commit();
        batch_pages_.fetch_add(1, std::memory_order_relaxed);
        i = j;
      }
    }
    ios = PageStore::thread_io();

    // Per-op fallback under the batch's DGL locks (strictly more
    // exclusion than any single op needs): the coupled per-op path
    // handles escalation, compound SMOs, and its own latching.
    fallback.insert(fallback.end(), deferred.begin(), deferred.end());
    batch_fallbacks_.fetch_add(fallback.size(), std::memory_order_relaxed);
    for (BatchUpdateOp* op : fallback) {
      uint64_t op_ios = 0;
      const Status st = UpdateCoupled(op->oid, op->from, op->to, &op_ios);
      ios += op_ios;
      record(*op, st);
    }
  }
  ChargeIoLatency(ios);
  lock_manager_.ReleaseAll(ts);
  return first_error;
}

Status ConcurrentIndex::InsertBatch(std::vector<BatchInsertOp>& ops) {
  if (ops.empty()) return Status::OK();
  if (const Status wal = WalStatus(); !wal.ok()) {
    for (BatchInsertOp& op : ops) op.status = wal;
    return wal;
  }
  const uint64_t ts = NextTs();
  std::vector<uint64_t> cells;
  cells.reserve(ops.size());
  for (const BatchInsertOp& op : ops) {
    cells.push_back(granules_.CellOf(op.pos));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  const Status dgl = AcquireDglWithRetry(&lock_manager_, ts, [&]() {
    return AcquireBatchUpdateLocks(&lock_manager_, ts, cells);
  });
  if (!dgl.ok()) {
    for (BatchInsertOp& op : ops) op.status = dgl;
    return dgl;
  }
  batched_updates_.fetch_add(ops.size(), std::memory_order_relaxed);

  Status first_error;
  auto record = [&](BatchInsertOp& op, const Status& st) {
    op.status = st;
    if (!st.ok() && first_error.ok()) first_error = st;
  };

  PageStore::ResetThreadIo();
  if (options_.latch_mode == LatchMode::kGlobal) {
    // Inserts are structure modifications; the batch amortizes the
    // tree-wide exclusive hold and the WAL record.
    std::unique_lock latch(latch_);
    WalOpScope wal_scope(system_->wal());
    DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
    for (BatchInsertOp& op : ops) {
      record(op, system_->Insert(op.oid, op.pos));
      // Apply per op: a forced-reinsert eviction by one insert must be
      // visible to the oid index before the next op runs.
      obs_scope.Apply();
    }
    wal_scope.Commit();
    batch_pages_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Each insert still runs its own latch-coupled descent (the write
    // set is discovered during the descent, so there is no leaf group
    // to batch under one latch hold); the DGL round trip is the
    // amortized part.
    for (BatchInsertOp& op : ops) {
      Status st =
          CoupledInsertWithReinsert(op.oid, IndexSystem::PointRect(op.pos));
      if (st.code() == StatusCode::kLatchContention) {
        compound_smos_.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<DrainGate> xgate(smo_gate_, std::defer_lock);
        AcquireCompoundGate(xgate);
        WalOpScope wal_scope(system_->wal());
        DeferredObserverScope obs_scope(system_->tree().subscribed_observer());
        st = system_->Insert(op.oid, op.pos);
      }
      batch_pages_.fetch_add(1, std::memory_order_relaxed);
      record(op, st);
    }
  }
  ChargeIoLatency(PageStore::thread_io());
  lock_manager_.ReleaseAll(ts);
  return first_error;
}

}  // namespace burtree
