// Update-strategy interface: TD (top-down delete+insert), LBU
// (Algorithm 1) and GBU (Algorithm 2) implement it. An update moves a
// point object from `old_pos` to `new_pos`.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "common/geometry.h"
#include "common/status.h"
#include "common/types.h"

namespace burtree {

/// Which arm of the update decision ladder served the request — the
/// experiment harness aggregates these to explain I/O differences.
enum class UpdatePath {
  kInPlace,     ///< new position inside the leaf MBR
  kExtend,      ///< leaf MBR enlarged (iExtendMBR / epsilon inflation)
  kSibling,     ///< entry shifted to a sibling leaf
  kAscend,      ///< re-inserted below a bounding ancestor (GBU only)
  kRootInsert,  ///< deleted bottom-up, re-inserted from the root (LBU)
  kTopDown,     ///< full top-down delete + insert
};

/// Outcome of one update: which decision-ladder arm handled it.
///
/// Thread-safety: plain value type; freely copyable across threads.
struct UpdateResult {
  UpdatePath path = UpdatePath::kTopDown;
};

/// Per-strategy counters of decision-ladder outcomes.
///
/// Thread-safety: NOT thread-safe; owned by one strategy instance and
/// mutated only from whatever context calls Update() (the concurrent
/// harness serializes updates under the tree latch before counting).
struct UpdatePathCounts {
  uint64_t in_place = 0;
  uint64_t extend = 0;
  uint64_t sibling = 0;
  uint64_t ascend = 0;
  uint64_t root_insert = 0;
  uint64_t top_down = 0;

  void Record(UpdatePath p) {
    switch (p) {
      case UpdatePath::kInPlace: ++in_place; break;
      case UpdatePath::kExtend: ++extend; break;
      case UpdatePath::kSibling: ++sibling; break;
      case UpdatePath::kAscend: ++ascend; break;
      case UpdatePath::kRootInsert: ++root_insert; break;
      case UpdatePath::kTopDown: ++top_down; break;
    }
  }
  uint64_t total() const {
    return in_place + extend + sibling + ascend + root_insert + top_down;
  }
};

/// The page set a bottom-up update intends to touch, reported *before*
/// any page latch is taken so the cc layer can acquire exclusive latches
/// in sorted order prior to the operation's I/O (coupled latch mode).
struct UpdatePlan {
  /// False: the operation cannot run leaf-local and goes straight to
  /// the escalation (top-down strategies, root-containment failures,
  /// unknown object).
  bool leaf_local = false;
  /// Leaf currently holding the object, from the secondary oid index.
  /// The lookup's cost-model I/O is charged during planning; UpdateScoped
  /// trusts this id instead of probing the index a second time.
  PageId leaf = kInvalidPageId;
  /// Parent of `leaf` when the strategy knows it at zero I/O (GBU reads
  /// it from the summary structure); kInvalidPageId when unknown (LBU
  /// discovers it from the latched leaf page and try-extends).
  PageId parent = kInvalidPageId;
  /// Split-safety of the planned leaf: true when the strategy knows (at
  /// zero I/O — GBU reads the summary's fullness bit vector) that the
  /// leaf still has a free entry slot, so no arm of the scoped update
  /// can overflow it. False means unknown or full (LBU has no bit
  /// vector and always reports false). The cc layer only counts it, as
  /// the split_unsafe_plans counter.
  bool split_safe = false;
};

/// Page-latch scope a scoped (coupled-mode) update runs under.
/// Implemented by the cc layer over its striped latch table; strategies
/// use it to confine page writes to latched pages and to
/// opportunistically grow the scope.
///
/// Contract: TryExtend never blocks. A false return means the operation
/// must give up the arm that needed the page (or return
/// Status::LatchContention so the caller escalates) — waiting here could
/// deadlock against sorted writer acquisition.
class UpdateLatchScope {
 public:
  virtual ~UpdateLatchScope() = default;

  /// True when `page` is already covered by the scope's exclusive set.
  virtual bool Covers(PageId page) const = 0;

  /// Non-blocking attempt to add an exclusive latch on `page`; the latch
  /// is held until the operation completes.
  virtual bool TryExtend(PageId page) = 0;
};

/// Interface of the paper's three update strategies: TD (top-down
/// delete+insert), LBU (Algorithm 1), GBU (Algorithm 2). One instance is
/// bound to one IndexSystem for its lifetime.
///
/// Thread-safety: Update() mutates the tree and the oid index and is NOT
/// internally synchronized — concurrent callers must exclude every other
/// writer and reader (ConcurrentIndex holds the tree-wide latch
/// exclusively in global mode, the compound-SMO gate exclusively in
/// coupled mode). UpdateScoped() is the coupled-mode entry point: it may
/// run concurrently from many threads *provided* each caller holds
/// exclusive page latches covering its UpdatePlan (plus the compound-SMO
/// gate shared). Path counters are internally synchronized either way.
class UpdateStrategy {
 public:
  virtual ~UpdateStrategy() = default;

  /// Moves `oid` from `old_pos` to `new_pos`, choosing the cheapest
  /// reorganization level the strategy supports.
  virtual StatusOr<UpdateResult> Update(ObjectId oid, const Point& old_pos,
                                        const Point& new_pos) = 0;

  /// Reports the page set this update would touch if it stays
  /// leaf-local. Reads only the secondary index / summary (never tree
  /// pages, which would race). Default: not leaf-local, i.e. the caller
  /// escalates.
  virtual UpdatePlan PlanUpdate(ObjectId oid, const Point& old_pos,
                                const Point& new_pos) {
    (void)oid;
    (void)old_pos;
    (void)new_pos;
    return UpdatePlan{};
  }

  /// Attempts the update while touching only pages latched through
  /// `scope` (the plan's pages are pre-latched; extras via TryExtend).
  /// Returns Status::LatchContention — before mutating anything — when
  /// the update needs structure modifications or unlatchable pages; the
  /// caller then escalates (a latched removal plus a coupled insert, or
  /// Update() under the exclusive compound-SMO gate).
  virtual StatusOr<UpdateResult> UpdateScoped(UpdateLatchScope& scope,
                                              const UpdatePlan& plan,
                                              ObjectId oid,
                                              const Point& old_pos,
                                              const Point& new_pos) {
    (void)scope;
    (void)plan;
    (void)oid;
    (void)old_pos;
    (void)new_pos;
    return Status::LatchContention("strategy has no leaf-local path");
  }

  /// After UpdateScoped escalated: predict the page the escalation will
  /// most likely stall on, so a caller can pull it into the buffer pool
  /// first. `scope` is a fresh, empty latch scope for any probe reads
  /// the prediction needs (try-only). Best-effort: kInvalidPageId means
  /// nothing worth warming. No library code calls it and no library
  /// strategy overrides it; it stays because perfbench's TracingStrategy
  /// overrides every virtual to time it, and that driver must keep
  /// building unchanged.
  virtual PageId PredictEscalationDest(UpdateLatchScope& scope,
                                       const UpdatePlan& plan, ObjectId oid,
                                       const Point& old_pos,
                                       const Point& new_pos) {
    (void)scope;
    (void)plan;
    (void)oid;
    (void)old_pos;
    (void)new_pos;
    return kInvalidPageId;
  }

  /// True when the strategy's escalated update decomposes into a
  /// bottom-up removal at the indexed leaf plus a root insert — the shape
  /// the coupled latch mode runs under page latches (bottom-up strategies
  /// with an oid index). False (TD) routes escalations through the
  /// serialized compound-SMO path instead.
  virtual bool SupportsCoupledEscalation() const { return false; }

  virtual const char* name() const = 0;

  /// Path bookkeeping for updates the cc layer completed on the
  /// strategy's behalf (the coupled remove+insert escalation, which never
  /// re-enters Update()).
  void RecordEscalatedPath(UpdatePath p) { RecordPath(p); }

  UpdatePathCounts path_counts() const {
    std::lock_guard lock(counts_mu_);
    return path_counts_;
  }
  void ResetPathCounts() {
    std::lock_guard lock(counts_mu_);
    path_counts_ = UpdatePathCounts{};
  }

 protected:
  /// Thread-safe counter bump (concurrent UpdateScoped callers).
  void RecordPath(UpdatePath p) {
    std::lock_guard lock(counts_mu_);
    path_counts_.Record(p);
  }

 private:
  mutable std::mutex counts_mu_;
  UpdatePathCounts path_counts_;
};

}  // namespace burtree
