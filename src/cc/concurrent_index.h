// ConcurrentIndex: multi-threaded front end for the throughput study
// (paper §5.4, Figure 8; 50 threads, DGL locking).
//
// Pipeline per operation:
//   1. acquire the DGL lock set (sorted granules => deadlock-free; the
//      lock manager's wait timeout is a backstop),
//   2. run the logical operation under tree latching — RAM-speed
//      critical sections — in one of two latch modes:
//        * kGlobal: one tree-wide latch (updates exclusive, queries
//          shared) — the paper's DGL baseline, bit-for-bit,
//        * kCoupled: the tree-wide latch is never taken. Bottom-up
//          updates plan their leaf (and, for GBU, parent) at zero page
//          I/O, X-latch exactly those pages in sorted order in a striped
//          page-latch table (extras by try-latch) and run the strategy's
//          leaf-local arms; escalations (splits, deep ascents, root
//          inserts) decompose into a latched bottom-up removal plus
//          RTree::InsertCoupled — a top-down X-latch-coupled descent
//          that releases ancestors as soon as the child is split-safe;
//          queries read version-validated node snapshots, falling back
//          to shared latches coupled over every level. The only
//          serialization left is the compound-SMO drain gate (a
//          writer-priority DrainGate all coupled operations hold
//          shared), taken exclusively for the rare operations whose
//          write set cannot be latched up front: underflow condense with
//          re-insertion, TD's top-down delete+insert, and starved
//          retries. The split/ascent/insert machinery itself never
//          drains anyone.
//   3. release the latches, then charge the simulated disk latency for
//      the page I/Os the operation performed *while still holding the
//      DGL locks* — so conflicting operations serialize their I/O time
//      exactly as a disk-resident DGL R-tree would. (Alternatively,
//      io_latency_in_op charges the latency at the PageStore, sleep
//      model, while page latches are held — the disk-resident regime
//      where page latching overlaps I/O stalls.)
//   4. release the locks.
//
// Throughput is therefore governed by per-operation I/O counts and
// granule conflicts — plus, in coupled mode, genuine page-latch
// parallelism for the leaf-local updates the paper's bottom-up
// strategies produce.
//
// Deadlock freedom (see docs/ARCHITECTURE.md for the full argument):
// DGL granules (sorted) → tree latch or drain gate → page latches
// (writers: sorted up-front set, try-only extension; readers: blocking
// only while holding nothing, try-only coupling) → buffer shard latch →
// PageStore. Every blocking wait is issued either holding nothing at its
// layer or in globally sorted order, so no cycle can form.
#pragma once

#include <atomic>
#include <shared_mutex>
#include <string>

#include "cc/dgl.h"
#include "cc/latch_table.h"
#include "cc/lock_manager.h"
#include "common/drain_gate.h"
#include "update/query_executor.h"
#include "update/strategy.h"

namespace burtree {

/// How the Figure-8 pipeline latches tree pages. The values are pinned:
/// gtest prints an unnamed enum parameter as its raw bytes, so
/// BatchEquivalenceTest's test names carry them, and renumbering
/// kCoupled would rename those tests.
enum class LatchMode {
  kGlobal = 0,   ///< one tree-wide latch (original behavior)
  kCoupled = 2,  ///< top-down latch-coupled descents; no tree-wide latch
};

const char* LatchModeName(LatchMode mode);

/// Parses "global" / "coupled" (case-sensitive); returns false and
/// leaves `out` untouched on anything else.
bool ParseLatchMode(const std::string& s, LatchMode* out);

/// Coupled-mode window queries have one read path: the version-validated
/// snapshot descent, falling back to the root-anchored S-coupled descent
/// when its restarts starve. The enum and the `read_mode` fields below
/// and in ExperimentConfig are read by nothing; they remain only because
/// the repo benchmark (perfbench/) still assigns them.
enum class ReadMode { kOptimistic };

struct ConcurrencyOptions {
  uint32_t grid_bits = 6;         ///< 64x64 spatial granules
  uint64_t io_latency_us = 100;   ///< simulated disk latency per page I/O
  /// Charge the per-I/O latency at the PageStore (sleep model, incurred
  /// while the operation's latches are held) instead of after the
  /// operation. Models a disk-resident tree where an I/O stalls exactly
  /// the pages the operation has latched — the regime where coupled
  /// page latching overlaps I/O stalls that the global latch serializes.
  bool io_latency_in_op = false;
  LatchMode latch_mode = LatchMode::kGlobal;
  ReadMode read_mode = ReadMode::kOptimistic;  ///< unused; see ReadMode
  LockManagerOptions lock;
};

/// Counters of ConcurrentIndex control flow (testing / benches). Global
/// mode touches only the batch, delete and kNN counts.
struct LatchModeStats {
  uint64_t scoped_updates = 0;   ///< updates completed under page latches
  uint64_t coupled_queries = 0;  ///< queries completed under coupling
  /// Coupled mode: updates that left the scoped fast path and ran as a
  /// latched bottom-up removal + latch-coupled insert descent.
  uint64_t coupled_escalations = 0;
  /// Coupled mode: inserts completed through RTree::InsertCoupled
  /// (ConcurrentIndex::Insert plus escalation re-inserts).
  uint64_t coupled_inserts = 0;
  /// Coupled mode: operations that fell through to the exclusive
  /// compound-SMO drain gate (underflow condense, TD updates, starved
  /// retries). The one remaining serialization point.
  uint64_t compound_smos = 0;
  /// Leaf-local plans whose strategy reported the leaf full
  /// (UpdatePlan::split_safe == false with a fullness bit vector).
  uint64_t split_unsafe_plans = 0;
  /// Latch-coupled descent attempts that hit a try-latch collision and
  /// restarted (updates, inserts, and queries combined).
  uint64_t descent_restarts = 0;
  /// Coupled mode: queries completed through the version-validated
  /// snapshot descent.
  uint64_t optimistic_queries = 0;
  /// Coupled queries whose optimistic attempts starved and that fell
  /// back to the root-anchored S-coupled descent.
  uint64_t optimistic_fallbacks = 0;
  /// Coupled-mode queries that completed through a summary-pruned,
  /// epoch-validated plan instead of a full root descent.
  uint64_t pruned_queries = 0;
  /// Operations executed through the batch APIs (UpdateBatch +
  /// InsertBatch), including the ones that later fell back per-op.
  uint64_t batched_updates = 0;
  /// Group executions: one per page group that got its own PageLatchSet
  /// + WalOpScope round trip (global mode counts one per batch — the
  /// whole batch is a single group under the tree-wide latch).
  uint64_t batch_pages = 0;
  /// Batched ops that left group execution for the per-op path —
  /// UpdateScoped returned LatchContention (cross-leaf move, structure
  /// modification, stale plan) or the op was a same-oid duplicate that
  /// must run after its predecessor.
  uint64_t batch_fallbacks = 0;
  /// Deletes completed through ConcurrentIndex::Delete (churn
  /// scenarios). Both latch modes run a delete in their exclusive
  /// section, so in coupled mode each also counts toward compound_smos.
  uint64_t deletes = 0;
  /// k-NN queries completed through ConcurrentIndex::Knn.
  uint64_t knn_queries = 0;
};

/// One update in a batch handed to ConcurrentIndex::UpdateBatch. The
/// per-op outcome lands in `status`; a batch-wide DGL failure (residual
/// lock-wait timeout past the retry budget) is written into every op, so
/// the caller can retry the whole batch — nothing was mutated.
struct BatchUpdateOp {
  ObjectId oid = 0;
  Point from;
  Point to;
  Status status;
};

/// One insert in a batch handed to ConcurrentIndex::InsertBatch.
struct BatchInsertOp {
  ObjectId oid = 0;
  Point pos;
  Status status;
};

class ConcurrentIndex {
 public:
  ConcurrentIndex(IndexSystem* system, UpdateStrategy* strategy,
                  QueryExecutor* executor,
                  const ConcurrencyOptions& options);

  /// Mutations (Update, Insert, Delete and the two batches) first check
  /// the WAL: once it failed for good (WalManager::status()) they return
  /// that error without touching the tree. Queries keep running.

  /// Thread-safe update of one object.
  Status Update(ObjectId oid, const Point& from, const Point& to);

  /// Thread-safe insert of a new object (the split-storm workload).
  /// Global mode takes the tree-wide exclusive latch (an insert is a
  /// structure modification); coupled mode runs the latch-coupled
  /// descent and never serializes tree-wide.
  Status Insert(ObjectId oid, const Point& pos);

  /// Thread-safe delete of an existing object at `pos` (the churn
  /// scenarios' insert/delete mix). A delete condenses underflowing
  /// leaves and re-inserts orphans — a compound structure modification
  /// whose write set cannot be page-latched up front — so every latch
  /// mode runs it in its exclusive section: the tree-wide latch in
  /// global mode, the compound-SMO drain gate in coupled mode.
  /// DGL side it is an insert's mirror image: IX root + X on the cell
  /// being vacated, so queries holding S on that cell serialize.
  Status Delete(ObjectId oid, const Point& pos);

  /// Thread-safe window query; returns the match count.
  StatusOr<size_t> Query(const Rect& window);

  /// Thread-safe k-nearest-neighbor query; returns the neighbor count
  /// (<= k). The best-first descent's read set is distance-bounded, not
  /// rectangle-bounded, so it cannot pre-declare page latches or DGL
  /// cells: global mode runs it under the shared tree-wide latch
  /// (updates hold it exclusively), and coupled mode drains through the
  /// compound-SMO gate. Conservative by construction — the
  /// kNN-under-update-storm scenario exists to price exactly this
  /// serialization; no DGL locks are taken (the simulated-I/O
  /// serialization DGL provides for updates/queries does not apply to
  /// the latch-only kNN path).
  StatusOr<size_t> Knn(const Point& query, size_t k);

  /// Group execution of a whole update batch (the ingest pool's engine,
  /// also callable directly): ONE DGL acquisition covering the union of
  /// every op's source/destination cells, then — in coupled mode — the
  /// ops are planned, grouped by target leaf, and each leaf
  /// group runs under a single PageLatchSet hold + WalOpScope record.
  /// Global mode executes the whole batch as one group under the
  /// tree-wide exclusive latch. Ops whose scoped attempt hits
  /// LatchContention (cross-leaf move, needed SMO, stale plan) fall
  /// back to the existing per-op path, still under the batch's DGL
  /// locks. Same-oid duplicates within the batch are serialized in
  /// submission order through the fallback path. Per-op outcomes land
  /// in ops[i].status; returns the first non-OK status (the remaining
  /// ops still run), or the DGL or WAL failure with nothing mutated.
  Status UpdateBatch(std::vector<BatchUpdateOp>& ops);

  /// Batched inserts: one DGL acquisition for the union of destination
  /// cells; global mode runs the whole batch under one tree-wide latch
  /// hold + WAL record, coupled mode runs each insert's
  /// latch-coupled descent (the DGL round trip is the amortized part).
  Status InsertBatch(std::vector<BatchInsertOp>& ops);

  LockManager& lock_manager() { return lock_manager_; }
  const ConcurrencyOptions& options() const { return options_; }
  LatchModeStats latch_stats() const;
  LatchTableStats latch_table_stats() const { return latch_table_.stats(); }

 private:
  uint64_t NextTs() { return ts_.fetch_add(1, std::memory_order_relaxed); }
  void ChargeIoLatency(uint64_t ios) const;
  /// The WAL's sticky error (OK without a WAL); see the mutation note.
  Status WalStatus() const;

  Status UpdateGlobal(ObjectId oid, const Point& from, const Point& to,
                      uint64_t* ios);
  /// Coupled mode's leaf-local fast path: X-latch the plan's pages in
  /// sorted order, run UpdateScoped. True with `*out` set when the update
  /// completed (or failed for real); false on LatchContention — nothing
  /// mutated, caller escalates.
  bool TryScopedUpdate(const UpdatePlan& plan, ObjectId oid,
                       const Point& from, const Point& to, Status* out);
  Status UpdateCoupled(ObjectId oid, const Point& from, const Point& to,
                       uint64_t* ios);
  StatusOr<size_t> QueryGlobal(const Rect& window, uint64_t* ios);
  StatusOr<size_t> QueryCoupled(const Rect& window, uint64_t* ios);

  /// Coupled-mode escalation body: latched bottom-up removal at the
  /// indexed leaf, then a latch-coupled root insert. Runs under the
  /// shared drain gate. `*needs_compound` is set when the operation must
  /// fall through to the exclusive gate: kNone (done — return the
  /// status), kFullUpdate (nothing mutated yet; re-run the strategy), or
  /// kInsertOnly (the entry was removed but the coupled re-insert
  /// starved; re-insert under the gate, losing no object).
  /// With a WAL, `*pending_token` carries the phase-1 removal record's
  /// reinsert token out to the kInsertOnly compound path so its insert
  /// can log the matching completion (0 = no pending record written).
  enum class CompoundNeed { kNone, kFullUpdate, kInsertOnly };
  Status CoupledEscalatedUpdate(ObjectId oid, const Point& from,
                                const Point& to, CompoundNeed* needs,
                                uint64_t* pending_token);

  /// Latch-coupled insert with restart/backoff: retries
  /// RTree::InsertCoupled until it commits or the attempt budget runs
  /// out (Status::LatchContention — the caller goes compound). The
  /// caller holds smo_gate_ shared. A nonzero `pending_token` marks the
  /// insert as the completion of a WAL pending-reinsert record.
  Status InsertCoupledWithRetry(ObjectId oid, const Rect& rect,
                                uint64_t pending_token = 0);

  /// Coupled-mode insert of one object: the latch-coupled descent under
  /// the shared gate, then — if it starved — the stock insert under the
  /// exclusive gate.
  Status InsertCoupled(ObjectId oid, const Point& pos);

  IndexSystem* system_;
  UpdateStrategy* strategy_;
  QueryExecutor* executor_;
  ConcurrencyOptions options_;
  LockManager lock_manager_;
  SpatialGranules granules_;
  /// Tree-wide latch, global mode only: updates, inserts and deletes
  /// exclusive, queries and kNN shared.
  std::shared_mutex latch_;
  /// Coupled mode's compound-SMO drain gate: every coupled-mode
  /// operation holds it shared for its page-latched phase; the rare
  /// compound operations (underflow condense, TD updates, starved
  /// retries) take it exclusively, which — because all other traffic is
  /// inside shared sections — grants them the single-threaded tree the
  /// stock strategy code assumes. Writer-priority (DrainGate): a plain
  /// shared_mutex would let a saturated shared stream starve the
  /// compound operation indefinitely. Lock order: DGL locks -> gate ->
  /// page latches; the gate is never acquired while holding a page
  /// latch.
  DrainGate smo_gate_;
  LatchTable latch_table_;
  std::atomic<uint64_t> ts_{1};
  std::atomic<uint64_t> scoped_updates_{0};
  std::atomic<uint64_t> coupled_queries_{0};
  std::atomic<uint64_t> coupled_escalations_{0};
  std::atomic<uint64_t> coupled_inserts_{0};
  std::atomic<uint64_t> compound_smos_{0};
  std::atomic<uint64_t> split_unsafe_plans_{0};
  std::atomic<uint64_t> descent_restarts_{0};
  std::atomic<uint64_t> optimistic_queries_{0};
  std::atomic<uint64_t> optimistic_fallbacks_{0};
  std::atomic<uint64_t> pruned_queries_{0};
  std::atomic<uint64_t> batched_updates_{0};
  std::atomic<uint64_t> batch_pages_{0};
  std::atomic<uint64_t> batch_fallbacks_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> knn_queries_{0};
};

}  // namespace burtree
